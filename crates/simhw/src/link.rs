//! A FIFO bandwidth channel.

use crate::time::SimTime;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A shared FIFO transfer resource with fixed bandwidth.
///
/// Jobs submitted at time `t` start at `max(t, when the previous job
/// finished)` and occupy the channel for `bytes / bandwidth`. Clones
/// share the queue. Offload transfers are not booked here: the core
/// crate's `IoEngine` prices them on its own write FIFO and
/// demand-first read queue.
///
/// ```
/// use ssdtrain_simhw::{Channel, SimTime};
/// let ch = Channel::new("pcie-write", 10e9); // 10 GB/s
/// let (s1, e1) = ch.submit(SimTime::ZERO, 10_000_000_000);
/// assert_eq!(e1.as_secs(), 1.0);
/// // Second job queues behind the first.
/// let (s2, _e2) = ch.submit(SimTime::from_secs(0.5), 1);
/// assert_eq!(s2.as_secs(), 1.0);
/// # let _ = s1;
/// ```
#[derive(Clone)]
pub struct Channel {
    name: String,
    bytes_per_sec: f64,
    /// When the last booked job finishes; shared by clones.
    free_at: Arc<Mutex<SimTime>>,
}

impl Channel {
    /// Creates a channel with the given bandwidth in bytes/second.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is not positive.
    pub fn new(name: &str, bytes_per_sec: f64) -> Channel {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        Channel {
            name: name.to_owned(),
            bytes_per_sec,
            free_at: Arc::new(Mutex::new(SimTime::ZERO)),
        }
    }

    /// Enqueues a transfer of `bytes` at `now`; returns `(start, end)`.
    pub fn submit(&self, now: SimTime, bytes: u64) -> (SimTime, SimTime) {
        let mut free_at = self.free_at.lock();
        let start = now.max(*free_at);
        let end = start.plus_secs(bytes as f64 / self.bytes_per_sec);
        *free_at = end;
        (start, end)
    }
}

impl fmt::Debug for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("name", &self.name)
            .field("gbps", &(self.bytes_per_sec / 1e9))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_serialize_fifo() {
        let ch = Channel::new("w", 1e9);
        let (_s1, e1) = ch.submit(SimTime::ZERO, 1_000_000_000); // 1 s
        assert_eq!(e1.as_secs(), 1.0);
        let (s2, e2) = ch.submit(SimTime::from_secs(0.2), 500_000_000);
        assert_eq!(s2.as_secs(), 1.0);
        assert_eq!(e2.as_secs(), 1.5);
    }

    #[test]
    fn idle_gap_allows_immediate_start() {
        let ch = Channel::new("w", 1e9);
        ch.submit(SimTime::ZERO, 1_000_000_000);
        let (s, _) = ch.submit(SimTime::from_secs(5.0), 1);
        assert_eq!(s.as_secs(), 5.0);
    }

    #[test]
    fn clones_share_the_queue() {
        let a = Channel::new("w", 1e9);
        let b = a.clone();
        b.submit(SimTime::ZERO, 1_000_000_000);
        let (start, _) = a.submit(SimTime::ZERO, 1);
        assert_eq!(start.as_secs(), 1.0, "a queues behind b's job");
    }
}
