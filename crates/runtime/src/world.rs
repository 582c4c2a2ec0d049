//! The simulated outside world: nondeterministic input channels with I/O
//! latency.
//!
//! The paper's workloads read from files and network sockets. Here a
//! channel is an integer id; reads return pseudo-random data words with a
//! latency model. Channels at or above [`IoModel::net_chan_base`] behave
//! like network sockets (much higher latency) — this is what makes the
//! `aget`/`knot`/`apache` analogues I/O-bound, so their recording overhead
//! hides inside I/O wait exactly as in the paper (§7.3).

use chimera_testkit::rng::Rng;

/// Latency and data model for simulated I/O.
///
/// All-scalar and `Copy` so an [`crate::ExecConfig`] can be shared by
/// reference across parallel trials without deep-cloning per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoModel {
    /// Base cost of a file-channel read, in cycles.
    pub file_base: u64,
    /// Extra cycles per word transferred on file channels.
    pub file_per_word: u64,
    /// Channels >= this id are network channels.
    pub net_chan_base: i64,
    /// Base cost of a network read.
    pub net_base: u64,
    /// Extra cycles per word on network channels.
    pub net_per_word: u64,
    /// Max random extra latency.
    pub jitter: u64,
}

impl Default for IoModel {
    fn default() -> Self {
        IoModel {
            file_base: 300,
            file_per_word: 2,
            net_chan_base: 1000,
            net_base: 20_000,
            net_per_word: 6,
            jitter: 2_000,
        }
    }
}

/// The simulated environment: a seeded generator of input data and I/O
/// latencies.
#[derive(Debug, Clone)]
pub struct World {
    rng: Rng,
    io: IoModel,
}

impl World {
    /// Create a world with its own RNG stream (independent of the
    /// scheduler's jitter stream so input *content* is stable under
    /// scheduling changes for a given read sequence).
    pub fn new(seed: u64, io: IoModel) -> World {
        World {
            rng: Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            io,
        }
    }

    /// Generate `len` input words for `chan`. Word values are small
    /// (byte-like) so logs are compressible, as real input data is.
    pub fn gen_input(&mut self, chan: i64, len: usize) -> Vec<i64> {
        let _ = chan;
        (0..len).map(|_| self.rng.gen_range(0..256)).collect()
    }

    /// Latency for a read of `len` words from `chan`.
    pub fn latency(&mut self, chan: i64, len: usize) -> u64 {
        let (base, per) = if chan >= self.io.net_chan_base {
            (self.io.net_base, self.io.net_per_word)
        } else {
            (self.io.file_base, self.io.file_per_word)
        };
        let jitter = if self.io.jitter > 0 {
            self.rng.gen_range(0..=self.io.jitter)
        } else {
            0
        };
        base + per * len as u64 + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data() {
        let mut a = World::new(7, IoModel::default());
        let mut b = World::new(7, IoModel::default());
        assert_eq!(a.gen_input(0, 16), b.gen_input(0, 16));
        assert_eq!(a.latency(0, 16), b.latency(0, 16));
    }

    #[test]
    fn different_seed_different_data() {
        let mut a = World::new(7, IoModel::default());
        let mut b = World::new(8, IoModel::default());
        assert_ne!(a.gen_input(0, 32), b.gen_input(0, 32));
    }

    #[test]
    fn network_channels_cost_more() {
        let io = IoModel {
            jitter: 0,
            ..IoModel::default()
        };
        let mut w = World::new(1, io);
        let file = w.latency(0, 100);
        let net = w.latency(io.net_chan_base, 100);
        assert!(net > 5 * file);
    }

    #[test]
    fn input_words_are_byte_like() {
        let mut w = World::new(3, IoModel::default());
        assert!(w.gen_input(0, 64).iter().all(|&v| (0..256).contains(&v)));
    }
}
