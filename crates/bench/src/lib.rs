//! Shared helpers for the Chimera benchmark harness: the number formats
//! of the `tables` binary. Its aligned tables come from
//! `chimera_testkit::bench::render_table`, the renderer of the bench
//! runner's report.

#![warn(missing_docs)]

/// Format an overhead multiplier like the paper ("1.39x", "53x").
pub fn fmt_x(v: f64) -> String {
    if v >= 10.0 {
        format!("{v:.0}x")
    } else {
        format!("{v:.2}x")
    }
}

/// Format a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    if v >= 0.01 {
        format!("{:.1}%", v * 100.0)
    } else {
        format!("{:.3}%", v * 100.0)
    }
}

/// Format a byte count in KB with one decimal.
pub fn fmt_kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_formatting_matches_paper_style() {
        assert_eq!(fmt_x(1.39), "1.39x");
        assert_eq!(fmt_x(53.0), "53x");
        assert_eq!(fmt_pct(0.14), "14.0%");
        assert_eq!(fmt_pct(0.0002), "0.020%");
    }

    #[test]
    fn kb_formatting() {
        assert_eq!(fmt_kb(2048), "2.0");
    }
}
