//! Running cost counters for a simulated server.
//!
//! Every overhead claim in the paper is stated in one of three currencies:
//! *operations* (cells touched — the balls-and-bins measure used by the
//! lower bounds), *bandwidth* (bytes moved), and *round trips* (the
//! client-to-server latency measure used in the comparison with recursive
//! Path ORAM). [`CostStats`] tracks all three.
//!
//! The `wire_*` counters are a fourth, physical currency: what a
//! network-backed server (`dps_net`) actually put on a TCP socket — framed
//! request/response exchanges and their encoded bytes, headers included.
//! They stay zero for in-process servers, so the model counters above
//! remain directly comparable between local and remote runs; use
//! [`CostStats::sans_wire`] to compare a remote server's stats against
//! the same program on a local server bit-for-bit.
//!
//! The `cache_*` counters are a fifth currency, owned by the durable
//! backend: how the bounded read-through cell cache of
//! `dps_server::DiskStore` behaved (hits, misses refilled by `pread`,
//! evictions). They stay zero for in-memory servers; use
//! [`CostStats::sans_cache`] to compare a cache-bounded store against an
//! in-memory server bit-for-bit.

/// Cumulative cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Number of cells downloaded.
    pub downloads: u64,
    /// Number of cells uploaded.
    pub uploads: u64,
    /// Number of cells the server computed over (PIR-style operations).
    pub computed: u64,
    /// Bytes transferred server -> client.
    pub bytes_down: u64,
    /// Bytes transferred client -> server.
    pub bytes_up: u64,
    /// Number of client-server round trips.
    pub round_trips: u64,
    /// Framed request/response exchanges performed on a real network wire
    /// (0 for in-process servers).
    pub wire_round_trips: u64,
    /// Bytes of framed requests written to the wire, headers included
    /// (client -> server; 0 for in-process servers).
    pub wire_bytes_up: u64,
    /// Bytes of framed responses read off the wire, headers included
    /// (server -> client; 0 for in-process servers).
    pub wire_bytes_down: u64,
    /// Times the network client tore down and re-established its
    /// connection after a wire-level fault (0 for in-process servers and
    /// for clients without a reconnect policy).
    pub wire_reconnects: u64,
    /// High-water mark of simultaneously in-flight pipelined wire
    /// requests on one connection (0 for in-process servers; 1 for a
    /// strictly request-response client). Unlike the other counters this
    /// is a maximum, not a sum: [`CostStats::plus`] takes the larger of
    /// the two marks and [`CostStats::since`] keeps the current one —
    /// high-water marks don't subtract.
    pub wire_inflight_max: u64,
    /// Reads served straight from the durable backend's in-memory cell
    /// cache (0 for in-memory servers).
    pub cache_hits: u64,
    /// Reads that missed the cell cache and were refilled from the arena
    /// file by a positional read (0 for in-memory servers).
    pub cache_misses: u64,
    /// Clean cache entries evicted to stay inside the configured cache
    /// budget (0 for in-memory servers).
    pub cache_evictions: u64,
}

impl CostStats {
    /// Total cell-level operations (the measure of Theorems 3.3/3.4/3.7).
    pub fn operations(&self) -> u64 {
        self.downloads + self.uploads + self.computed
    }

    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }

    /// Total framed bytes moved on the wire in either direction.
    pub fn wire_bytes_total(&self) -> u64 {
        self.wire_bytes_down + self.wire_bytes_up
    }

    /// This snapshot with the `wire_*` counters zeroed: the model-level
    /// view, directly comparable between an in-process server and a
    /// network-backed one serving the same requests.
    pub fn sans_wire(&self) -> CostStats {
        CostStats {
            wire_round_trips: 0,
            wire_bytes_up: 0,
            wire_bytes_down: 0,
            wire_reconnects: 0,
            wire_inflight_max: 0,
            ..*self
        }
    }

    /// This snapshot with the `cache_*` counters zeroed: the model-level
    /// view, directly comparable between an in-memory server and a
    /// cache-bounded durable one serving the same requests.
    pub fn sans_cache(&self) -> CostStats {
        CostStats { cache_hits: 0, cache_misses: 0, cache_evictions: 0, ..*self }
    }

    /// Component-wise sum `self + other`; useful for aggregating over
    /// multiple servers (multi-server PIR, recursive ORAM layers).
    pub fn plus(&self, other: &CostStats) -> CostStats {
        CostStats {
            downloads: self.downloads + other.downloads,
            uploads: self.uploads + other.uploads,
            computed: self.computed + other.computed,
            bytes_down: self.bytes_down + other.bytes_down,
            bytes_up: self.bytes_up + other.bytes_up,
            round_trips: self.round_trips + other.round_trips,
            wire_round_trips: self.wire_round_trips + other.wire_round_trips,
            wire_bytes_up: self.wire_bytes_up + other.wire_bytes_up,
            wire_bytes_down: self.wire_bytes_down + other.wire_bytes_down,
            wire_reconnects: self.wire_reconnects + other.wire_reconnects,
            wire_inflight_max: self.wire_inflight_max.max(other.wire_inflight_max),
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            cache_evictions: self.cache_evictions + other.cache_evictions,
        }
    }

    /// Component-wise difference `self - earlier`; useful for measuring the
    /// cost of a single query given snapshots before and after.
    /// `wire_inflight_max` is a high-water mark, not a sum, so the current
    /// mark is kept as-is.
    pub fn since(&self, earlier: &CostStats) -> CostStats {
        CostStats {
            downloads: self.downloads - earlier.downloads,
            uploads: self.uploads - earlier.uploads,
            computed: self.computed - earlier.computed,
            bytes_down: self.bytes_down - earlier.bytes_down,
            bytes_up: self.bytes_up - earlier.bytes_up,
            round_trips: self.round_trips - earlier.round_trips,
            wire_round_trips: self.wire_round_trips - earlier.wire_round_trips,
            wire_bytes_up: self.wire_bytes_up - earlier.wire_bytes_up,
            wire_bytes_down: self.wire_bytes_down - earlier.wire_bytes_down,
            wire_reconnects: self.wire_reconnects - earlier.wire_reconnects,
            wire_inflight_max: self.wire_inflight_max,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
        }
    }
}

impl std::fmt::Display for CostStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ops={} (down={} up={} compute={}), bytes={} (down={} up={}), round_trips={}",
            self.operations(),
            self.downloads,
            self.uploads,
            self.computed,
            self.bytes_total(),
            self.bytes_down,
            self.bytes_up,
            self.round_trips
        )?;
        if self.wire_round_trips != 0 || self.wire_bytes_total() != 0 {
            write!(
                f,
                ", wire: round_trips={} bytes={} (down={} up={}) inflight_max={}",
                self.wire_round_trips,
                self.wire_bytes_total(),
                self.wire_bytes_down,
                self.wire_bytes_up,
                self.wire_inflight_max
            )?;
            if self.wire_reconnects != 0 {
                write!(f, " reconnects={}", self.wire_reconnects)?;
            }
        }
        if self.cache_hits != 0 || self.cache_misses != 0 || self.cache_evictions != 0 {
            write!(
                f,
                ", cache: hits={} misses={} evictions={}",
                self.cache_hits, self.cache_misses, self.cache_evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_sum() {
        let s = CostStats { downloads: 2, uploads: 3, computed: 5, ..Default::default() };
        assert_eq!(s.operations(), 10);
    }

    #[test]
    fn plus_adds_componentwise() {
        let a = CostStats { downloads: 1, uploads: 2, round_trips: 1, ..Default::default() };
        let b = CostStats { downloads: 3, bytes_up: 7, round_trips: 2, ..Default::default() };
        let sum = a.plus(&b);
        assert_eq!(sum.downloads, 4);
        assert_eq!(sum.uploads, 2);
        assert_eq!(sum.bytes_up, 7);
        assert_eq!(sum.round_trips, 3);
    }

    #[test]
    fn since_subtracts() {
        let early =
            CostStats { downloads: 1, bytes_down: 100, round_trips: 1, ..Default::default() };
        let late =
            CostStats { downloads: 4, bytes_down: 500, round_trips: 3, ..Default::default() };
        let diff = late.since(&early);
        assert_eq!(diff.downloads, 3);
        assert_eq!(diff.bytes_down, 400);
        assert_eq!(diff.round_trips, 2);
    }

    #[test]
    fn display_is_informative() {
        let s = CostStats { downloads: 1, uploads: 1, ..Default::default() };
        let rendered = format!("{s}");
        assert!(rendered.contains("ops=2"));
        // The wire section only appears once wire traffic exists.
        assert!(!rendered.contains("wire"));
        let wired = CostStats { wire_round_trips: 3, wire_bytes_up: 40, ..s };
        assert!(format!("{wired}").contains("wire: round_trips=3"));
    }

    #[test]
    fn sans_wire_zeroes_only_the_wire_counters() {
        let s = CostStats {
            downloads: 2,
            bytes_down: 9,
            round_trips: 1,
            wire_round_trips: 4,
            wire_bytes_up: 100,
            wire_bytes_down: 200,
            wire_reconnects: 2,
            wire_inflight_max: 8,
            ..Default::default()
        };
        let model = s.sans_wire();
        assert_eq!(model.downloads, 2);
        assert_eq!(model.bytes_down, 9);
        assert_eq!(model.round_trips, 1);
        assert_eq!(model.wire_round_trips, 0);
        assert_eq!(model.wire_bytes_total(), 0);
        assert_eq!(model.wire_reconnects, 0);
        assert_eq!(model.wire_inflight_max, 0);
        assert_eq!(s.wire_bytes_total(), 300);
    }

    #[test]
    fn reconnects_sum_and_subtract() {
        let a = CostStats { wire_reconnects: 2, ..Default::default() };
        let b = CostStats { wire_reconnects: 3, ..Default::default() };
        assert_eq!(a.plus(&b).wire_reconnects, 5);
        assert_eq!(b.since(&a).wire_reconnects, 1);
        let rendered = format!("{}", CostStats { wire_round_trips: 1, wire_reconnects: 4, ..a });
        assert!(rendered.contains("reconnects=4"));
    }

    #[test]
    fn sans_cache_zeroes_only_the_cache_counters() {
        let s = CostStats {
            downloads: 2,
            round_trips: 1,
            cache_hits: 10,
            cache_misses: 4,
            cache_evictions: 3,
            ..Default::default()
        };
        let model = s.sans_cache();
        assert_eq!(model.downloads, 2);
        assert_eq!(model.round_trips, 1);
        assert_eq!(model.cache_hits, 0);
        assert_eq!(model.cache_misses, 0);
        assert_eq!(model.cache_evictions, 0);
        // plus/since treat cache counters as plain sums.
        assert_eq!(s.plus(&s).cache_misses, 8);
        assert_eq!(
            s.since(&CostStats { cache_hits: 4, ..Default::default() })
                .cache_hits,
            6
        );
        // The cache section only appears once cache traffic exists.
        assert!(!format!("{model}").contains("cache"));
        assert!(format!("{s}").contains("cache: hits=10 misses=4 evictions=3"));
    }

    #[test]
    fn inflight_max_is_a_high_water_mark() {
        let a = CostStats { wire_inflight_max: 3, wire_round_trips: 10, ..Default::default() };
        let b = CostStats { wire_inflight_max: 8, wire_round_trips: 5, ..Default::default() };
        // plus: counters add, the mark takes the larger side.
        let sum = a.plus(&b);
        assert_eq!(sum.wire_round_trips, 15);
        assert_eq!(sum.wire_inflight_max, 8);
        // since: counters subtract, but the mark is carried through
        // unchanged (on a connection it only ever rises).
        let early = CostStats { wire_inflight_max: 3, wire_round_trips: 4, ..Default::default() };
        let late = CostStats { wire_inflight_max: 8, wire_round_trips: 10, ..Default::default() };
        let diff = late.since(&early);
        assert_eq!(diff.wire_round_trips, 6);
        assert_eq!(diff.wire_inflight_max, 8);
    }
}
