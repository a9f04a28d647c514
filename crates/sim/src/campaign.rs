//! One positions-only pass per trajectory ensemble.
//!
//! The paper's Figures 2–6 all read one campaign per `(model, l)`: the
//! per-step critical range `c_t` gives `r100/r90/r10/r0`, and the
//! merge profile of every `profile_stride`-th step gives the
//! largest-component curves and `rl90/rl75/rl50`.
//! [`simulate_campaign`] records both from a single pass, feeding each
//! step to the same observers [`simulate_critical_ranges`] and
//! [`simulate_profiles`] run alone, so its results are bit-identical to
//! running those two campaigns.
//!
//! [`simulate_critical_ranges`]: crate::simulate_critical_ranges
//! [`simulate_profiles`]: crate::simulate_profiles

use crate::{
    config::SimConfig,
    critical::{CriticalRangeObserver, CriticalRangeResults},
    profile::{ProfileObserver, ProfileResults},
    stream::run_connectivity_stream,
    SimError,
};
use manet_mobility::Mobility;

/// Runs the campaign once and returns its critical-range results and
/// its component-size profiles.
///
/// # Errors
///
/// Propagates the profile grid's validation and engine errors.
pub fn simulate_campaign<const D: usize, M>(
    config: &SimConfig<D>,
    model: &M,
) -> Result<(CriticalRangeResults, ProfileResults), SimError>
where
    M: Mobility<D> + Clone + Send + Sync,
{
    let empty = ProfileObserver::for_config(config)?;
    let per_iteration = run_connectivity_stream(config, model, None, |_| {
        (CriticalRangeObserver::new(config.steps()), empty.clone())
    })?;
    let (series, profiles) = per_iteration.into_iter().unzip();
    Ok((
        CriticalRangeResults::freeze(series)?,
        ProfileResults::from_profiles(profiles),
    ))
}
