//! Order statistics, `/proc` readers and the result line.

/// Percentile `q` (0–100) of `v`, nearest-rank on a sorted copy.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The percentile `latency_tail_ms` reports. Cold answers 30–60 solves a
/// run, so p75 is the highest with ten samples beyond it. On churn's
/// sub-millisecond reads every tail follows host steal (before churn was
/// pinned to one vCPU, 25–35 % steal raised their p90 two- to tenfold and
/// their p50 by a fifth), so churn reports the same p75 and prints p90
/// and above as diagnostics.
pub const TAIL_PERCENTILE: f64 = 75.0;

/// User + system CPU of process `pid` so far, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks of 1/100 s (USER_HZ).
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed stat field {i}"))
    };
    Ok((ticks(11)? + ticks(12)?) * 10.0)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// CPU time counters from `/proc/stat` as `(steal, total)` ticks: of the
/// whole host (`cpu: None`) or of one vCPU.
pub fn host_ticks(cpu: Option<usize>) -> (u64, u64) {
    let prefix = cpu.map_or("cpu ".to_string(), |c| format!("cpu{c} "));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let nums: Vec<u64> = stat
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = nums.iter().take(8).sum();
    (nums.get(7).copied().unwrap_or(0), total)
}

/// The share of vCPU time that the hypervisor stole over an interval:
/// time in which the server was runnable but not running.
///
/// On a shared host whole runs see 0 to 35 % steal, which stretches every
/// wall-clock timing by at least as much. Wall-clock timings are therefore counted
/// in steal-free time, `t * (1 - share)`, the time the vCPUs actually ran
/// over the phase the timing fell in. CPU times (`/proc/<pid>/stat`)
/// exclude steal already and are left alone.
#[derive(Clone, Copy, Debug)]
pub struct Steal {
    pub share: f64,
}

impl Steal {
    /// What a wall-clock timing over the interval is multiplied by to count
    /// steal-free time.
    pub fn free(&self) -> f64 {
        1.0 - self.share
    }
}

/// Reads the steal of one vCPU, or of all of them, interval by interval.
pub struct StealMeter {
    cpu: Option<usize>,
    last: (u64, u64),
}

impl StealMeter {
    pub fn new(cpu: Option<usize>) -> StealMeter {
        StealMeter {
            cpu,
            last: host_ticks(cpu),
        }
    }

    /// The steal since the previous lap, or since `new`.
    pub fn lap(&mut self) -> Steal {
        let now = host_ticks(self.cpu);
        let (steal, total) = (now.0 - self.last.0, now.1 - self.last.1);
        self.last = now;
        Steal {
            share: steal as f64 / total.max(1) as f64,
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The result: the last line the benchmark prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN. The run has already failed a check for any
            // metric that is not finite; 0 only keeps the line parseable.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
