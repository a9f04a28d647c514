//! Round-trip tests for the optional `serde` feature.
//!
//! Run with `cargo test --features serde`; the whole file is inert
//! otherwise.
#![cfg(feature = "serde")]

use manet::geom::{BoundaryPolicy, Point, Region};
use manet::mobility::Drunkard;
use manet::sim::{simulate_fixed_ranges, SimConfig};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn point_roundtrips_as_tuple() {
    let p = Point::new([1.5, -2.25, 1e-9]);
    assert_eq!(roundtrip(&p), p);
    let json = serde_json::to_string(&p).unwrap();
    assert_eq!(json, "[1.5,-2.25,1e-9]");
}

#[test]
fn point_rejects_wrong_arity() {
    let err = serde_json::from_str::<Point<3>>("[1.0,2.0]");
    assert!(err.is_err());
}

#[test]
fn region_and_policy_roundtrip() {
    let r: Region<2> = Region::new(42.5).unwrap();
    assert_eq!(roundtrip(&r), r);
    for policy in [
        BoundaryPolicy::Resample,
        BoundaryPolicy::Reflect,
        BoundaryPolicy::Clamp,
    ] {
        assert_eq!(roundtrip(&policy), policy);
    }
}

#[test]
fn sim_config_roundtrips() {
    let mut b = SimConfig::<2>::builder();
    b.nodes(10).side(100.0).iterations(3).steps(7).seed(5);
    let cfg = b.build().unwrap();
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn fixed_range_report_roundtrips() {
    let mut b = SimConfig::<2>::builder();
    b.nodes(6).side(50.0).iterations(2).steps(5).seed(9);
    let cfg = b.build().unwrap();
    let model = Drunkard::new(0.1, 0.2, 1.0).unwrap();
    let report = simulate_fixed_ranges(&cfg, &model, &[20.0]).unwrap();
    let back = roundtrip(&report);
    assert_eq!(back, report);
}
