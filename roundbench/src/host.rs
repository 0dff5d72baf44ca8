//! Host facts for the run header: CPU time of this process and of the
//! whole machine from `/proc`, so a run disturbed by steal or by other
//! processes shows it instead of silently widening the spread.

use std::fs;

/// `/proc` reports CPU time in `USER_HZ` ticks, fixed at 100 per second
/// on every Linux architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (including
/// worker threads that already exited), from the text of
/// `/proc/self/stat`.
pub fn parse_self_cpu_s(stat: &str) -> Option<f64> {
    // `comm` (field 2) is parenthesised and may hold spaces or ')', so
    // split after the last ')': the next token is field 3 (state), which
    // puts utime (14) and stime (15) at offsets 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds of this process, all threads (including exited ones), at
/// nanosecond resolution: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Fine
/// enough to time one round, where `/proc/self/stat` counts 10 ms ticks.
///
/// # Panics
///
/// Panics if the clock is unavailable, which Linux never reports.
pub fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Machine-wide CPU tick totals from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostTicks {
    /// Ticks spent running anything: user, nice, system, irq, softirq.
    pub busy: u64,
    /// Ticks the hypervisor ran someone else on our virtual CPUs.
    pub steal: u64,
    /// Every tick: busy + idle + iowait + steal.
    pub total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_ticks(stat: &str) -> Option<HostTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted inside user.
    let [user, nice, system, idle, iowait, irq, softirq, steal] = *v.get(..8)? else {
        return None;
    };
    let busy = user + nice + system + irq + softirq;
    Some(HostTicks {
        busy,
        steal,
        total: busy + idle + iowait + steal,
    })
}

/// A reading of this process's and the machine's CPU counters.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    self_s: f64,
    host: HostTicks,
}

impl CpuSample {
    /// Reads both counters now.
    ///
    /// # Panics
    ///
    /// Panics if `/proc` is unreadable: the benchmark's CPU metrics
    /// cannot be measured without it.
    pub fn now() -> Self {
        let own = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
        let host = fs::read_to_string("/proc/stat").expect("/proc/stat readable");
        CpuSample {
            self_s: parse_self_cpu_s(&own).expect("/proc/self/stat well-formed"),
            host: parse_host_ticks(&host).expect("/proc/stat well-formed"),
        }
    }

    /// This process's CPU seconds since `earlier`.
    pub fn self_s_since(&self, earlier: &CpuSample) -> f64 {
        self.self_s - earlier.self_s
    }

    /// Shares of the machine's CPU time since `earlier`: `(steal, other)`,
    /// where `other` is busy time not spent by this process. Both are
    /// fractions of all CPU time on all CPUs over the interval.
    pub fn disturbance_since(&self, earlier: &CpuSample) -> (f64, f64) {
        let total = self.host.total.saturating_sub(earlier.host.total).max(1) as f64;
        let steal = self.host.steal.saturating_sub(earlier.host.steal) as f64;
        let busy = self.host.busy.saturating_sub(earlier.host.busy) as f64 / TICKS_PER_S;
        let other = (busy - self.self_s_since(earlier)).max(0.0) * TICKS_PER_S;
        (steal / total, other / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_stat_skips_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (round bench) (x)) R 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    350 25 0 0 20 0 3 0 99 1000 200 18446744073709551615";
        assert_eq!(parse_self_cpu_s(stat), Some(3.75));
        assert_eq!(parse_self_cpu_s("garbage"), None);
        assert_eq!(parse_self_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn host_stat_reads_the_aggregate_line() {
        let stat = "cpu  100 5 40 800 10 3 2 7 11 0\n\
                    cpu0 50 2 20 400 5 1 1 3 5 0\n\
                    intr 12345\n";
        let t = parse_host_ticks(stat).expect("parses");
        assert_eq!(
            t,
            HostTicks {
                busy: 150,
                steal: 7,
                total: 967
            }
        );
        assert_eq!(parse_host_ticks("cpu0 1 2 3\n"), None);
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn process_cpu_clock_counts_this_threads_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = process_cpu_s() - t0;
        // Busy for 30 ms of wall time; a preempted thread gets less CPU.
        assert!(spent > 0.0 && spent < 1.0, "{spent}");
    }

    #[test]
    fn disturbance_subtracts_this_process() {
        let at = |own: f64, busy: u64, steal: u64, total: u64| CpuSample {
            self_s: own,
            host: HostTicks { busy, steal, total },
        };
        let (steal, other) = at(2.0, 450, 20, 1200).disturbance_since(&at(1.0, 300, 10, 1000));
        // 200 ticks elapsed: 10 stolen, 150 busy of which 100 were ours.
        assert!((steal - 0.05).abs() < 1e-12);
        assert!((other - 0.25).abs() < 1e-12);
    }
}
