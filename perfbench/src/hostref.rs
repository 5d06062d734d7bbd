//! The host reference: a fixed piece of work owned by the benchmark,
//! timed between the program's calls, that gives the host's speed at that
//! moment.
//!
//! On a shared host the program's speed moves by ±15% within seconds and
//! drifts by as much over minutes, because other tenants load the caches
//! and memory the program shares with them (a loop that stays in registers
//! barely moves), and, now and then, because the hypervisor takes the
//! CPUs away. The reference is memory-bound the way gate-level simulation
//! is, random gathers from a table larger than the caches, and runs on as
//! many threads as the workload, so it slows down when the program does. A pass timed in
//! reference units, its seconds over the seconds of one reference unit
//! timed beside it, moves with the program and much less with the host.
//! The reference does not call the program, so a change to the program
//! does not move it.

use std::hint::black_box;
use std::time::Instant;

/// log2 of a lane's table entries: 2^20 entries of 16 bytes, 16 MiB.
const LOG_ENTRIES: u32 = 20;

/// Table entries one reference unit evaluates on each lane.
const UNIT_EVALS: usize = 1 << 15;

/// The seconds a reference unit counts for where a time in reference
/// units is given in seconds: about what one unit takes on one thread of
/// the unloaded 2-vCPU Xeon VM this benchmark was written on.
pub const UNIT_SECONDS: f64 = 0.5e-3;

/// One thread's table.
struct Lane {
    /// Two fanin indices per entry, uniform over the table, so every unit
    /// does the same mix of misses wherever in the table it starts.
    fanin: Vec<[u32; 2]>,
    vals: Vec<u64>,
    at: usize,
}

impl Lane {
    fn new(seed: u64) -> Lane {
        let n = 1usize << LOG_ENTRIES;
        let mut x = seed;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mask = (n - 1) as u64;
        let fanin = (0..n)
            .map(|_| [(next() & mask) as u32, (next() & mask) as u32])
            .collect();
        let vals = (0..n).map(|_| next()).collect();
        Lane { fanin, vals, at: 0 }
    }

    fn eval(&mut self, evals: usize) {
        let n = self.vals.len();
        for _ in 0..evals {
            let i = self.at;
            let [a, b] = self.fanin[i];
            let (va, vb) = (self.vals[a as usize], self.vals[b as usize]);
            // a gate of one of four kinds, by position
            self.vals[i] = match i & 3 {
                0 => va & vb,
                1 => va | vb,
                2 => va ^ vb,
                _ => !(va & vb),
            };
            self.at = (i + 1) & (n - 1);
        }
        black_box(&self.vals);
    }
}

pub struct HostRef {
    lanes: Vec<Lane>,
}

impl HostRef {
    /// A reference that runs on `threads` threads, one lane each.
    pub fn new(threads: usize) -> HostRef {
        let lanes = (0..threads.max(1) as u64)
            .map(|i| Lane::new(0x9e37_79b9_7f4a_7c15 ^ i))
            .collect();
        HostRef { lanes }
    }

    /// Bytes the tables hold resident for the whole run.
    pub fn bytes(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| {
                l.fanin.len() * std::mem::size_of::<[u32; 2]>()
                    + l.vals.len() * std::mem::size_of::<u64>()
            })
            .sum()
    }

    /// Runs `units` reference units on every lane, each lane on a thread
    /// of its own when there are several; returns the seconds until the
    /// last lane is done.
    pub fn run(&mut self, units: usize) -> f64 {
        let t = Instant::now();
        let evals = units * UNIT_EVALS;
        if let [lane] = &mut self.lanes[..] {
            lane.eval(evals);
        } else {
            std::thread::scope(|s| {
                for lane in &mut self.lanes {
                    s.spawn(move || lane.eval(evals));
                }
            });
        }
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_are_fixed_and_the_work_is_deterministic() {
        let (mut a, mut b) = (HostRef::new(1), HostRef::new(1));
        assert_eq!(a.lanes[0].fanin[..64], b.lanes[0].fanin[..64]);
        assert_eq!(a.bytes(), 16 << 20);
        a.run(3);
        b.run(3);
        assert_eq!(a.lanes[0].at, 3 * UNIT_EVALS);
        assert_eq!(a.lanes[0].vals, b.lanes[0].vals);
    }

    #[test]
    fn every_lane_does_the_same_work() {
        let mut two = HostRef::new(2);
        assert_eq!(two.bytes(), 32 << 20);
        two.run(2);
        for lane in &two.lanes {
            assert_eq!(lane.at, 2 * UNIT_EVALS);
        }
    }
}
