//! One violation per determinism rule, plus the two sites the rules
//! must leave alone. `tests/lint_rules.rs` pins every finding by line.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// R1: a hash-ordered collection.
pub fn r1_hash_map() -> usize {
    std::collections::HashMap::<u8, u8>::new().len()
}

/// R2: wall-clock reads.
pub fn r2_clocks() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
}

/// R3: panicking calls.
pub fn r3_panics(o: Option<u8>, r: Result<u8, u8>) -> u8 {
    let a = o.unwrap();
    let b = o.expect("some");
    let c = r.expect_err("err");
    if a == 0 {
        panic!("zero");
    }
    a + b + c
}

/// R3 waived: a reasoned `#[expect]` silences exactly this site.
#[expect(clippy::unwrap_used, reason = "callers always pass Some")]
pub fn r3_waived(waived: Option<u8>) -> u8 {
    waived.unwrap()
}

/// R4: unsafe code.
pub fn r4_unsafe() -> u8 {
    unsafe { core::ptr::read(&0u8) }
}

pub fn r4_undocumented() {}

/// R6: ad-hoc threading.
pub fn r6_spawn() {
    let _ = std::thread::spawn(|| {});
}

/// A waiver without a reason.
#[allow(clippy::unwrap_used)]
pub fn reasonless_allow(allowed: Option<u8>) -> u8 {
    allowed.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_allowed() {
        assert_eq!("1".parse::<u8>().unwrap(), 1);
    }
}
