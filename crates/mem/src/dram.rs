//! Request-based DRAM contention model.

/// DRAM timing: a minimum latency plus a bandwidth-limited service
/// pipe, matching the paper's "50 ns min. latency, 51.2 GB/s
/// bandwidth, request-based contention model".
///
/// At 4 GHz, 50 ns = 200 cycles and 51.2 GB/s = 12.8 B/cycle, i.e. one
/// 64 B line every 5 cycles. Each line transfer claims the next free
/// 5-cycle slot; data is ready one minimum latency after its slot.
/// Under overload the slot queue grows, which is exactly the
/// back-pressure the "request-based contention model" provides.
#[derive(Clone, Debug)]
pub struct Dram {
    /// Minimum (unloaded) latency in cycles.
    pub min_latency: u64,
    /// Cycles between line transfers (bandwidth).
    pub cycles_per_line: u64,
    next_slot: u64,
}

impl Dram {
    /// Creates a DRAM model.
    pub fn new(min_latency: u64, cycles_per_line: u64) -> Dram {
        Dram { min_latency, cycles_per_line, next_slot: 0 }
    }

    /// Schedules a line read issued at `now`; returns the cycle the
    /// line is ready.
    pub fn read_line(&mut self, now: u64) -> u64 {
        let slot = self.next_slot.max(now);
        self.next_slot = slot + self.cycles_per_line;
        slot + self.min_latency
    }

    /// Schedules a line write-back issued at `now` (consumes bandwidth
    /// but nobody waits for it).
    pub fn write_line(&mut self, now: u64) {
        let slot = self.next_slot.max(now);
        self.next_slot = slot + self.cycles_per_line;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_min_latency() {
        let mut d = Dram::new(200, 5);
        assert_eq!(d.read_line(1000), 1200);
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        let mut d = Dram::new(200, 5);
        let r0 = d.read_line(0);
        let r1 = d.read_line(0);
        let r2 = d.read_line(0);
        assert_eq!(r0, 200);
        assert_eq!(r1, 205);
        assert_eq!(r2, 210);
    }

    #[test]
    fn idle_gaps_reset_the_pipe() {
        let mut d = Dram::new(200, 5);
        d.read_line(0);
        // Long idle gap: the next request should see no queueing.
        assert_eq!(d.read_line(10_000), 10_200);
        assert_eq!(d.read_line(10_300), 10_500);
    }

    #[test]
    fn writebacks_consume_bandwidth() {
        let mut d = Dram::new(200, 5);
        d.write_line(0);
        assert_eq!(d.read_line(0), 205);
    }
}
