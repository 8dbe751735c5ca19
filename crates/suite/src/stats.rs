//! Streaming sweep statistics.
//!
//! The whole point of the streaming engine is that per-circuit artifacts are
//! discarded; what survives a 100k-circuit sweep is this accumulator:
//! per-family failure-class counts, accuracy distribution (moments + a
//! 10-bin histogram) and compiled-size distribution, plus a bounded
//! quarantine log for rejected external files.
//!
//! Stats are part of the checkpoint payload, so they (de)serialize through
//! the same bounds-checked [`Wire`] reader as the rest of the format, with
//! `f64`s stored as IEEE bits — resume must reproduce the uninterrupted
//! run's stats *bit-identically*, and round-tripping through decimal would
//! break that.

use lsml_durable::wire::Wire;
use std::collections::BTreeMap;

/// How one sweep unit ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitClass {
    /// Compiled within budget, exactly.
    Ok,
    /// Compiled, but approximation traded accuracy for size.
    Approximated,
    /// Compiled, but the result exceeds the node budget.
    OverBudget,
    /// The unit panicked inside its isolation boundary.
    Failed,
    /// The unit hit its per-circuit deadline.
    TimedOut,
    /// The resource governor rejected the unit before any work.
    Skipped,
}

/// Number of accuracy histogram bins (bin `i` covers `[i/10, (i+1)/10)`,
/// with 1.0 landing in the last bin).
pub const ACC_BINS: usize = 10;

/// Cap on retained quarantine log entries (the *count* keeps climbing).
pub const MAX_QUARANTINE_LOG: usize = 64;

/// Accumulated results for one family (or for the `external` pseudo-family).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FamilyStats {
    /// Units per terminal class.
    pub ok: u64,
    /// See [`UnitClass::Approximated`].
    pub approximated: u64,
    /// See [`UnitClass::OverBudget`].
    pub over_budget: u64,
    /// See [`UnitClass::Failed`].
    pub failed: u64,
    /// See [`UnitClass::TimedOut`].
    pub timed_out: u64,
    /// See [`UnitClass::Skipped`].
    pub skipped: u64,
    /// Scored units (accuracy was measured).
    pub acc_n: u64,
    /// Sum of accuracies, accumulated in unit order.
    pub acc_sum: f64,
    /// Lowest accuracy seen.
    pub acc_min: f64,
    /// Highest accuracy seen.
    pub acc_max: f64,
    /// 10-bin accuracy histogram.
    pub acc_hist: [u64; ACC_BINS],
    /// Compiled units (size was measured).
    pub size_n: u64,
    /// Sum of compiled AND-gate counts.
    pub size_sum: u64,
    /// Largest compiled circuit.
    pub size_max: u64,
}

impl FamilyStats {
    /// Folds one finished unit in. `accuracy`/`size` are present only for
    /// units that got far enough to measure them.
    pub fn record(&mut self, class: UnitClass, accuracy: Option<f64>, size: Option<u64>) {
        match class {
            UnitClass::Ok => self.ok += 1,
            UnitClass::Approximated => self.approximated += 1,
            UnitClass::OverBudget => self.over_budget += 1,
            UnitClass::Failed => self.failed += 1,
            UnitClass::TimedOut => self.timed_out += 1,
            UnitClass::Skipped => self.skipped += 1,
        }
        if let Some(a) = accuracy {
            if self.acc_n == 0 {
                self.acc_min = a;
                self.acc_max = a;
            } else {
                self.acc_min = self.acc_min.min(a);
                self.acc_max = self.acc_max.max(a);
            }
            self.acc_n += 1;
            self.acc_sum += a;
            let bin = ((a * ACC_BINS as f64) as usize).min(ACC_BINS - 1);
            self.acc_hist[bin] += 1;
        }
        if let Some(s) = size {
            self.size_n += 1;
            self.size_sum += s;
            self.size_max = self.size_max.max(s);
        }
    }

    /// Units of every class recorded into this family.
    pub fn total(&self) -> u64 {
        self.ok + self.approximated + self.over_budget + self.failed + self.timed_out + self.skipped
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for c in [
            self.ok,
            self.approximated,
            self.over_budget,
            self.failed,
            self.timed_out,
            self.skipped,
            self.acc_n,
            self.acc_sum.to_bits(),
            self.acc_min.to_bits(),
            self.acc_max.to_bits(),
        ] {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &h in &self.acc_hist {
            out.extend_from_slice(&h.to_le_bytes());
        }
        for c in [self.size_n, self.size_sum, self.size_max] {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    fn decode(w: &mut Wire<'_>) -> Result<FamilyStats, String> {
        let mut s = FamilyStats {
            ok: w.u64()?,
            approximated: w.u64()?,
            over_budget: w.u64()?,
            failed: w.u64()?,
            timed_out: w.u64()?,
            skipped: w.u64()?,
            acc_n: w.u64()?,
            acc_sum: f64::from_bits(w.u64()?),
            acc_min: f64::from_bits(w.u64()?),
            acc_max: f64::from_bits(w.u64()?),
            ..FamilyStats::default()
        };
        for h in &mut s.acc_hist {
            *h = w.u64()?;
        }
        s.size_n = w.u64()?;
        s.size_sum = w.u64()?;
        s.size_max = w.u64()?;
        Ok(s)
    }

    fn to_json(&self) -> String {
        let mean = if self.acc_n > 0 {
            self.acc_sum / self.acc_n as f64
        } else {
            0.0
        };
        let hist: Vec<String> = self.acc_hist.iter().map(|h| h.to_string()).collect();
        let mean_size = if self.size_n > 0 {
            self.size_sum as f64 / self.size_n as f64
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\"ok\":{},\"approximated\":{},\"over_budget\":{},",
                "\"failed\":{},\"timed_out\":{},\"skipped\":{},",
                "\"accuracy\":{{\"n\":{},\"mean\":{},\"min\":{},\"max\":{},\"hist\":[{}]}},",
                "\"size\":{{\"n\":{},\"mean\":{},\"max\":{}}}}}"
            ),
            self.ok,
            self.approximated,
            self.over_budget,
            self.failed,
            self.timed_out,
            self.skipped,
            self.acc_n,
            mean,
            if self.acc_n > 0 { self.acc_min } else { 0.0 },
            if self.acc_n > 0 { self.acc_max } else { 0.0 },
            hist.join(","),
            self.size_n,
            mean_size,
            self.size_max,
        )
    }
}

/// The whole sweep's accumulator. `PartialEq` is exact (f64s compared as
/// written), which is what the kill-and-resume determinism assertions use.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteStats {
    /// Per-family results, keyed by family name (externally ingested files
    /// accumulate under `"external"`). `BTreeMap` for deterministic order.
    pub families: BTreeMap<String, FamilyStats>,
    /// Total quarantined external files (unbounded count).
    pub quarantined: u64,
    /// The first [`MAX_QUARANTINE_LOG`] quarantine `(file, reason)` pairs.
    pub quarantine_log: Vec<(String, String)>,
}

impl SuiteStats {
    /// The accumulator for `family`, created empty on first touch.
    pub fn family_mut(&mut self, family: &str) -> &mut FamilyStats {
        self.families.entry(family.to_string()).or_default()
    }

    /// Records a rejected external file (bounded log, unbounded count).
    pub fn record_quarantine(&mut self, file: &str, reason: &str) {
        self.quarantined += 1;
        if self.quarantine_log.len() < MAX_QUARANTINE_LOG {
            self.quarantine_log
                .push((file.to_string(), reason.to_string()));
        }
    }

    /// Units processed across the whole sweep. Quarantine is its own
    /// terminal state (a quarantined file is not also recorded under a
    /// family), so this is the family totals plus the quarantine count.
    pub fn total_units(&self) -> u64 {
        self.families.values().map(|f| f.total()).sum::<u64>() + self.quarantined
    }

    /// Serializes into `out` (checkpoint payload fragment).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.families.len() as u32).to_le_bytes());
        for (name, fam) in &self.families {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            fam.encode(out);
        }
        out.extend_from_slice(&self.quarantined.to_le_bytes());
        out.extend_from_slice(&(self.quarantine_log.len() as u32).to_le_bytes());
        for (file, reason) in &self.quarantine_log {
            for s in [file, reason] {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }

    /// Bounds-checked decode; any defect is an `Err` (→ cold start).
    pub fn decode(w: &mut Wire<'_>) -> Result<SuiteStats, String> {
        let mut stats = SuiteStats::default();
        let n_fam = w.u32()? as usize;
        for _ in 0..n_fam {
            let name = read_string(w)?;
            stats.families.insert(name, FamilyStats::decode(w)?);
        }
        stats.quarantined = w.u64()?;
        let n_log = w.u32()? as usize;
        if n_log > MAX_QUARANTINE_LOG {
            return Err(format!("quarantine log claims {n_log} entries"));
        }
        for _ in 0..n_log {
            let file = read_string(w)?;
            let reason = read_string(w)?;
            stats.quarantine_log.push((file, reason));
        }
        Ok(stats)
    }

    /// Renders the `BENCH_suite.json` document.
    pub fn to_json(&self) -> String {
        let fams: Vec<String> = self
            .families
            .iter()
            .map(|(name, f)| format!("{}:{}", json_string(name), f.to_json()))
            .collect();
        let log: Vec<String> = self
            .quarantine_log
            .iter()
            .map(|(file, reason)| {
                format!(
                    "{{\"file\":{},\"reason\":{}}}",
                    json_string(file),
                    json_string(reason)
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"schema\":\"lsml-suite-v1\",\"total_units\":{},",
                "\"families\":{{{}}},",
                "\"quarantined\":{{\"count\":{},\"entries\":[{}]}}}}"
            ),
            self.total_units(),
            fams.join(","),
            self.quarantined,
            log.join(","),
        )
    }
}

fn read_string(w: &mut Wire<'_>) -> Result<String, String> {
    let len = w.u32()? as usize;
    if len > 1 << 16 {
        return Err(format!("string of {len} bytes in stats"));
    }
    String::from_utf8(w.bytes(len)?.to_vec()).map_err(|e| e.to_string())
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SuiteStats {
        let mut s = SuiteStats::default();
        let f = s.family_mut("adder");
        f.record(UnitClass::Ok, Some(1.0), Some(12));
        f.record(UnitClass::Approximated, Some(0.83), Some(40));
        f.record(UnitClass::TimedOut, None, None);
        s.family_mut("dnf").record(UnitClass::Failed, None, None);
        s.record_quarantine("junk.bench", "bench: unknown gate");
        s
    }

    #[test]
    fn records_classes_and_distributions() {
        let s = sample();
        let f = &s.families["adder"];
        assert_eq!((f.ok, f.approximated, f.timed_out), (1, 1, 1));
        assert_eq!(f.acc_n, 2);
        assert_eq!(f.acc_min, 0.83);
        assert_eq!(f.acc_max, 1.0);
        assert_eq!(f.acc_hist[9], 1, "1.0 clamps into the last bin");
        assert_eq!(f.acc_hist[8], 1, "0.83 in [0.8, 0.9)");
        assert_eq!((f.size_n, f.size_sum, f.size_max), (2, 52, 40));
        assert_eq!(s.total_units(), 5, "4 units + 1 quarantined");
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let s = sample();
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        let mut w = Wire::new(&bytes);
        let d = SuiteStats::decode(&mut w).unwrap();
        assert_eq!(w.remaining(), 0);
        assert_eq!(d, s);

        // Truncations never panic, always Err.
        for cut in 0..bytes.len() {
            let mut w = Wire::new(&bytes[..cut]);
            assert!(SuiteStats::decode(&mut w).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn json_is_wellformed_and_escaped() {
        let mut s = sample();
        s.record_quarantine("we\"ird\\name\n", "why");
        let j = s.to_json();
        assert!(j.starts_with("{\"schema\":\"lsml-suite-v1\""));
        assert!(j.contains("\"adder\":{\"ok\":1"));
        assert!(j.contains("\"we\\\"ird\\\\name\\n\""));
        assert!(j.contains("\"count\":2"));
        // Balanced braces/brackets (cheap well-formedness check; the repo
        // has no JSON parser to vendor).
        let (mut depth, mut ok) = (0i64, true);
        let mut in_str = false;
        let mut esc = false;
        for c in j.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => {
                    depth -= 1;
                    ok &= depth >= 0;
                }
                _ => {}
            }
        }
        assert!(ok && depth == 0 && !in_str, "unbalanced JSON: {j}");
    }

    #[test]
    fn quarantine_log_is_bounded() {
        let mut s = SuiteStats::default();
        for i in 0..(MAX_QUARANTINE_LOG + 10) {
            s.record_quarantine(&format!("f{i}"), "r");
        }
        assert_eq!(s.quarantine_log.len(), MAX_QUARANTINE_LOG);
        assert_eq!(s.quarantined, (MAX_QUARANTINE_LOG + 10) as u64);
    }
}
