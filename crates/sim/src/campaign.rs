//! One positions-only pass per trajectory ensemble.
//!
//! The paper's Figures 2–6 all read one campaign per `(model, l)`: the
//! per-step critical range `c_t` gives `r100/r90/r10/r0`, and the
//! merge profile of every `profile_stride`-th step gives the
//! largest-component curves and `rl90/rl75/rl50`.
//! [`simulate_campaign`] records both from a single pass, feeding each
//! step to the same observers [`simulate_raw_critical_series`] and
//! [`simulate_profiles`] run alone, so its results are bit-identical to
//! running those two campaigns.
//!
//! [`simulate_raw_critical_series`]: crate::simulate_raw_critical_series
//! [`simulate_profiles`]: crate::simulate_profiles

use crate::{
    config::SimConfig,
    critical::CriticalRangeObserver,
    profile::{ProfileObserver, ProfileResults},
    stream::run_connectivity_stream,
    SimError,
};
use manet_mobility::Mobility;

/// Runs the campaign once and returns each iteration's critical-range
/// series **in time order** together with the component-size
/// profiles.
///
/// # Errors
///
/// Propagates the profile grid's validation.
pub fn simulate_campaign<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
) -> Result<(Vec<Vec<f64>>, ProfileResults), SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let empty = ProfileObserver::for_config(config)?;
    let per_iteration = run_connectivity_stream(config, model, |_| {
        (CriticalRangeObserver::new(config.steps()), empty.clone())
    });
    let (series, profiles) = per_iteration.into_iter().unzip();
    Ok((series, ProfileResults::from_profiles(profiles)))
}
