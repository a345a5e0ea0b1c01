//! Small measurement helpers: order statistics, peak memory, and the
//! metric set a run prints.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU seconds used so far by every thread of this process, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it
/// leaves out time the machine ran something else, including time a
/// virtual machine's vCPUs were stolen by the host.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds
    // for), and clock_gettime writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }

    /// The declared metrics as one JSON object, `{"name": {"value": v,
    /// "unit": u}}`, in declaration order; a declared metric the run did
    /// not set reads 0 (the layer did no work). Panics if the run set a
    /// metric that is not declared, or declared with another unit.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> String {
        for (name, (_, unit)) in &self.values {
            assert!(
                declared.contains(&(*name, *unit)),
                "metric {name} ({unit}) is not declared"
            );
        }
        let body: Vec<String> = declared
            .iter()
            .map(|(n, u)| {
                let v = self.values.get(n).map_or(0.0, |(v, _)| *v);
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite f64 as JSON, with every digit Rust's shortest round-trip
/// formatting keeps.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Per-layer totals summed over a run's passes or requests; the per-layer
/// metrics are means per pass/request or ratios of two totals.
#[derive(Default)]
pub struct Totals {
    sums: BTreeMap<&'static str, f64>,
}

impl Totals {
    /// Adds `v` to the total named `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Raises the total named `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_default();
        *e = e.max(v);
    }

    /// The total named `name` (0 if never added).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}
