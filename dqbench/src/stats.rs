//! Order statistics, digests and the result line.

use std::collections::BTreeMap;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between order statistics; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if hi == lo {
        return Some(sorted[lo]);
    }
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median, or 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes.iter().copied()))
}

/// The metrics of one run, by name, with their units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// The names of the metrics that hold no finite value.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, (value, _))| !value.is_finite())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// The result object: the benchmark's last line of standard output. A
    /// value that is not finite is written as `null`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 0.9), Some(4.6));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn a_value_that_is_not_finite_is_named_and_never_reads_as_zero() {
        let mut m = Metrics::default();
        m.set("latency_p50_ms", f64::INFINITY, "ms");
        m.set("setup_s", 0.25, "s");
        assert_eq!(m.non_finite(), ["latency_p50_ms"]);
        assert!(m
            .result_line(false, 1, 1)
            .contains("\"latency_p50_ms\": {\"value\": null,"));
    }

    #[test]
    fn result_line_names_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25, "s");
        m.set("latency_p50_ms", 1.5, "ms");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
