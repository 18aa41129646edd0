//! Statistics, the environment stamp and the output lines.

use crate::inputs::Inputs;
use crate::serve::{http_config, service_config, LOAD_CONNECTIONS};
use std::fmt::Write as _;

/// Nearest-rank percentile of unsorted samples; 0 for no samples.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A latency percentile robust to bursts of host noise: the samples,
/// in arrival order, are cut into as many consecutive windows as hold
/// at least `min_window` samples each (at most 15, an odd count), the
/// percentile is taken in each window, and the median of those is
/// returned with the window count.
pub fn windowed_percentile(samples: &[(usize, u64)], p: f64, min_window: usize) -> (u64, usize) {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let mut windows = (v.len() / min_window.max(1)).clamp(1, 15);
    if windows.is_multiple_of(2) {
        windows -= 1;
    }
    let size = v.len().div_ceil(windows).max(1);
    let per: Vec<f64> = v
        .chunks(size)
        .map(|w| {
            let lat: Vec<u64> = w.iter().map(|s| s.1).collect();
            percentile(&lat, p) as f64
        })
        .collect();
    (median_f64(&per) as u64, per.len())
}

/// Share of CPU time the hypervisor stole from this host since boot
/// (`/proc/stat`), as `(steal, total)` jiffies.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

pub fn median_f64(values: &[f64]) -> f64 {
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

/// Mean of the samples left once the highest and the lowest tenth are
/// dropped (at least one each from five samples on). Like a median it
/// ignores a stray slow sample; unlike one it does not flip between the
/// two values a bimodal time takes (the OBDA set-up waits 0 or 2 ms for
/// the server's polling acceptor, in a mix that differs per process).
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = if v.len() >= 5 {
        (v.len() / 10).max(1)
    } else {
        0
    };
    mean(&v[cut..v.len() - cut])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Metrics of a result line, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// FNV-style digest of every source file of the program (the crates, the
/// vendored stand-ins and the workspace manifests), so runs of different
/// code can be told apart even where no git metadata is available.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h = crate::check::Hasher::new();
    for f in &files {
        h.write_str(&f.to_string_lossy());
        h.write_bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// The checked-out commit, read from `.git` when there is one.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The environment stamp printed with every result.
pub fn stamp(inputs: &Inputs, seconds: f64, trace: bool) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let http = http_config();
    let svc = service_config();
    let mut pool = crate::check::Hasher::new();
    for q in &inputs.queries {
        pool.write_str(&q.sparql);
    }
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"world_seed\": {}, \"world_cells\": {}, \
         \"seconds\": {}, \"trace\": {}, \
         \"host\": {}, \"nproc\": {nproc}, \"commit\": {}, \"source_digest\": {}, \
         \"profile\": {}, \"inputs_digest\": \"{:016x}\", \"query_pool_digest\": \"{:016x}\", \
         \"pool_queries\": {}, \"schedule_steps\": {}, \"lai_observations\": {}, \"offered_rate\": {}, \
         \"load_connections\": {LOAD_CONNECTIONS}, \"http_workers\": {}, \
         \"keep_alive_timeout_ms\": {}, \"max_in_flight\": {}, \"max_queue\": {}, \
         \"queue_timeout_ms\": {}, \"queue_delay_target\": {}, \"planner\": {}, \
         \"batch_size\": {}}}}}",
        json_str(inputs.workload.name()),
        inputs.seed,
        crate::inputs::WORLD_SEED,
        crate::inputs::WORLD_CELLS,
        json_num(seconds),
        trace,
        json_str(&host),
        json_str(&commit()),
        json_str(&source_digest()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        inputs.digest(),
        pool.finish(),
        inputs.queries.len(),
        inputs.steps.len(),
        inputs.lai.as_ref().map_or(0, |l| crate::inputs::lai_table(l).rows.len()),
        json_num(inputs.workload.offered_rate()),
        http.workers,
        http.keep_alive_timeout.as_millis(),
        svc.max_in_flight,
        svc.max_queue,
        svc.queue_timeout.as_millis(),
        json_str(&format!("{:?}", svc.queue_delay_target)),
        svc.eval.planner,
        svc.eval.batch_size,
    )
}

/// Values of every sample line of a Prometheus text exposition whose
/// series starts with `name` and contains `label` (empty: any).
pub fn prometheus_sum(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let base = series.split('{').next().unwrap_or("");
            base == name && series.contains(label)
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[1.0, 2.0, 3.0]), 2.0);
        // Five samples: the stray 100 and the lowest one are dropped.
        assert_eq!(trimmed_mean(&[100.0, 2.0, 3.0, 4.0, 1.0]), 3.0);
        // A two-valued time averages instead of flipping.
        let v: Vec<f64> = (0..20)
            .map(|i| if i % 3 == 0 { 5.0 } else { 3.0 })
            .collect();
        let m = trimmed_mean(&v);
        assert!(m > 3.0 && m < 5.0, "{m}");
    }
}
