//! Clean fixture: a cold module (no hot-path marker). Panicking here is
//! legal, and nothing below is *resolvably* reached from the hot path.

/// Cold code may unwrap.
pub fn parse(flag: Option<u64>) -> u64 {
    flag.unwrap()
}

/// Two impls share `refresh`, which makes the name ambiguous.
pub struct Pool;

impl Pool {
    fn refresh(&self) -> u64 {
        None::<u64>.unwrap()
    }
}

/// Shadow of [`Pool::refresh`].
pub struct Registry;

impl Registry {
    fn refresh(&self) -> u64 {
        16
    }
}

/// Probes implemented by two types: `dyn` dispatch must not pick one.
pub trait Probe {
    /// Samples one reading.
    fn sample(&self) -> u64;
}

/// Panic-free implementor.
pub struct FastProbe;

impl Probe for FastProbe {
    fn sample(&self) -> u64 {
        7
    }
}

/// Panicking implementor — must not leak its effect into `poll`.
pub struct SlowProbe;

impl Probe for SlowProbe {
    fn sample(&self) -> u64 {
        None::<u64>.expect("slow probe")
    }
}
