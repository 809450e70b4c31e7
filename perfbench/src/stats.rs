//! Order statistics, the peak-memory probe, and the result line.

use std::fmt::Write as _;

/// The value at quantile `p` (0..=1) of `sorted` by nearest rank: the
/// smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50, p90 and p99 that leaves at least ten samples
/// beyond it, or p50 when even the median leaves fewer.
pub fn tail_quantile(samples: usize) -> f64 {
    [0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// `p` as a percentile label: `p50`, `p90`, `p99.9`.
pub fn quantile_label(p: f64) -> String {
    let pct = p * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round())
    } else {
        format!("p{pct:.1}")
    }
}

/// First, second and third quartile by the exclusive method, the one
/// Python's `statistics.quantiles(data, n=4)` uses by default.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    assert!(sorted.len() >= 2, "quartiles need at least two samples");
    let n = sorted.len() as i64;
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp raised `j`, as in Python.
        let delta = (i * m - 4 * j) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// A sorted sample of one repeated measurement.
#[derive(Clone, Debug, Default)]
pub struct Sample(Vec<f64>);

impl Sample {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Sample) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> f64 {
        percentile(&self.sorted(), 0.5)
    }

    pub fn quantile(&self, p: f64) -> f64 {
        percentile(&self.sorted(), p)
    }

    /// First, second and third quartile (at least two samples).
    pub fn quartiles(&self) -> [f64; 3] {
        quartiles(&self.sorted())
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

/// Peak resident set size in MiB, from the `VmHWM` line of a
/// `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(kib / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One metric of the result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if i > 0 {
            s.push_str(", ");
        }
        // `{:?}` prints the shortest text that reads back as the same f64.
        write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_serve::json::{parse, Json};

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(999), 0.9);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(100_000), 0.99);
        assert_eq!(quantile_label(0.9), "p90");
        assert_eq!(quantile_label(0.999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), [1.25, 3.0, 7.0]);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), [2.5, 4.0, 5.5]);
    }

    #[test]
    fn sample_median_and_tail() {
        let mut s = Sample::default();
        for v in (1..=200).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 100.0);
        assert_eq!(s.quantile(tail_quantile(s.len())), 180.0);
        assert_eq!(s.mean(), 100.5);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
        assert!(peak_rss_mib().expect("linux proc fs") > 0.0);
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "main_tail_ms".into(),
                value: 512.034_117,
                unit: "ms",
            },
            Metric {
                name: "setup_s".into(),
                value: 1.0 / 3.0,
                unit: "s",
            },
        ];
        let line = result_json(1000, 2, &metrics);
        let v = parse(&line).expect("result line is JSON");
        assert!(matches!(v.get("correct"), Some(Json::Bool(true))));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(2));
        let Some(Json::Obj(fields)) = v.get("metrics") else {
            panic!("metrics is an object: {line}");
        };
        assert_eq!(fields.len(), 2);
        for (m, (name, body)) in metrics.iter().zip(fields) {
            assert_eq!(&m.name, name);
            assert_eq!(body.get("value"), Some(&Json::Num(m.value)));
            assert_eq!(body.get("unit").and_then(Json::as_str), Some(m.unit));
        }
    }
}
