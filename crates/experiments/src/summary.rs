//! The Section 5.6 headline claims, recomputed from the reproduced figures.
//!
//! The reproduction targets the *shape* of the paper's findings (who wins,
//! roughly by how much, where thrashing sets in), not the absolute numbers —
//! the substrate is a re-implemented simulator, not the authors' testbed.

use crate::figures::{FigureId, FigureRunner};
use crate::output::SeriesTable;

/// One recomputed claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short identifier.
    pub name: String,
    /// What the paper reports.
    pub paper: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the qualitative shape holds.
    pub holds: bool,
}

/// The full set of recomputed claims.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// All claims, in presentation order.
    pub claims: Vec<Claim>,
}

impl Summary {
    /// `true` when every claim's shape holds.
    pub fn all_hold(&self) -> bool {
        self.claims.iter().all(|c| c.holds)
    }

    /// Render the summary as text.
    pub fn render_text(&self) -> String {
        let mut out = String::from("Section 5.6 summary claims (shape reproduction)\n");
        for c in &self.claims {
            out.push_str(&format!(
                "  [{}] {}\n      paper:    {}\n      measured: {}\n",
                if c.holds { "ok" } else { "!!" },
                c.name,
                c.paper,
                c.measured
            ));
        }
        out.push_str(&format!(
            "=> {}/{} claims hold\n",
            self.claims.iter().filter(|c| c.holds).count(),
            self.claims.len()
        ));
        out
    }
}

fn peak(table: &SeriesTable, column: &str) -> (String, f64) {
    let mut best = (String::new(), f64::MIN);
    for (x, _) in &table.rows {
        if let Some(v) = table.value(x, column) {
            if v > best.1 {
                best = (x.clone(), v);
            }
        }
    }
    best
}

fn improvement_percent(better: f64, base: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (better - base) / base
    }
}

/// Recompute the summary claims using the given runner (the runner's cache
/// is shared with any figures already built at the same scale).
pub fn compute_summary(runner: &mut FigureRunner) -> Summary {
    let mut claims = Vec::new();

    // ---- Read/write model, infinite resources (Figures 4–7) ----
    let fig4 = FigureId(4).build(runner).table;
    let (rec_peak_mpl, rec_peak) = peak(&fig4, "recoverability");
    let comm_at_same = fig4.value(&rec_peak_mpl, "commutativity").unwrap_or(0.0);
    let imp = improvement_percent(rec_peak, comm_at_same);
    claims.push(Claim {
        name: "RW/∞: peak throughput improvement".into(),
        paper: "≈67% higher with recoverability at the peak (mpl=50)".into(),
        measured: format!(
            "{imp:.0}% higher at mpl={rec_peak_mpl} ({rec_peak:.1} vs {comm_at_same:.1} tps)"
        ),
        holds: imp > 10.0,
    });

    let fig6 = FigureId(6).build(runner).table;
    let br_ok = fig6.rows.iter().all(|(x, _)| {
        let rec = fig6.value(x, "recoverability BR").unwrap_or(f64::MAX);
        let com = fig6.value(x, "commutativity BR").unwrap_or(0.0);
        rec <= com + 1e-9
    });
    claims.push(Claim {
        name: "RW/∞: blocking ratio ordering".into(),
        paper: "blocking ratio is smaller with recoverability at every mpl".into(),
        measured: format!("lower-or-equal at every mpl: {br_ok}"),
        holds: br_ok,
    });

    let fig7 = FigureId(7).build(runner).table;
    let ccr_ok = {
        let low_mpls: Vec<&String> = fig7
            .rows
            .iter()
            .map(|(x, _)| x)
            .filter(|x| x.parse::<usize>().unwrap_or(0) <= 100)
            .collect();
        low_mpls.iter().all(|x| {
            fig7.value(x, "recoverability CCR").unwrap_or(0.0)
                >= fig7.value(x, "commutativity CCR").unwrap_or(f64::MAX) - 1e-9
        })
    };
    claims.push(Claim {
        name: "RW/∞: cycle-check ratio ordering".into(),
        paper: "cycle check ratio is higher with recoverability (below heavy thrashing)".into(),
        measured: format!("higher-or-equal for mpl ≤ 100: {ccr_ok}"),
        holds: ccr_ok,
    });

    let al_decreases = {
        let col = "recoverability AL";
        let mut values: Vec<(usize, f64)> = fig7
            .rows
            .iter()
            .filter_map(|(x, _)| Some((x.parse::<usize>().ok()?, fig7.value(x, col)?)))
            .filter(|(mpl, _)| *mpl >= 50)
            .collect();
        values.sort_by_key(|(mpl, _)| *mpl);
        values.windows(2).all(|w| w[1].1 <= w[0].1 + 0.5)
    };
    claims.push(Claim {
        name: "RW/∞: abort length past the knee".into(),
        paper: "once thrashing begins, abort length decreases with mpl".into(),
        measured: format!("non-increasing (±0.5 ops) for mpl ≥ 50: {al_decreases}"),
        holds: al_decreases,
    });

    // ---- Fair vs unfair scheduling (Figures 4 vs 8) ----
    let fig8 = FigureId(8).build(runner).table;
    let (_, unfair_peak_rec) = peak(&fig8, "recoverability");
    let (_, unfair_peak_com) = peak(&fig8, "commutativity");
    let (_, fair_peak_rec) = peak(&fig4, "recoverability");
    let (_, fair_peak_com) = peak(&fig4, "commutativity");
    let unfair_higher =
        unfair_peak_rec >= fair_peak_rec * 0.98 && unfair_peak_com >= fair_peak_com * 0.98;
    claims.push(Claim {
        name: "RW/∞: fair vs unfair peak throughput".into(),
        paper: "peak throughput without fair scheduling is higher for both policies".into(),
        measured: format!(
            "unfair peaks {unfair_peak_com:.1}/{unfair_peak_rec:.1} vs fair {fair_peak_com:.1}/{fair_peak_rec:.1} (comm/rec)"
        ),
        holds: unfair_higher,
    });

    // ---- Read/write model, finite resources (Figures 10 and 11) ----
    let fig10 = FigureId(10).build(runner).table;
    let (rec10_mpl, rec10_peak) = peak(&fig10, "recoverability");
    let com10_at_same = fig10.value(&rec10_mpl, "commutativity").unwrap_or(0.0);
    let imp10 = improvement_percent(rec10_peak, com10_at_same);
    let resource_gap_smaller = imp10 <= imp + 1e-9;
    claims.push(Claim {
        name: "RW/5RU: improvement shrinks under resource contention".into(),
        paper: "≈15% at the peak with 5 resource units (vs 67% with infinite)".into(),
        measured: format!("{imp10:.0}% at mpl={rec10_mpl} (infinite-resource gap was {imp:.0}%)"),
        holds: imp10 >= 0.0 && resource_gap_smaller,
    });

    let fig10_lower = {
        let inf_peak = rec_peak;
        rec10_peak < inf_peak
    };
    claims.push(Claim {
        name: "RW: finite resources cap throughput".into(),
        paper: "peak throughput with 5 resource units is below the infinite-resource peak".into(),
        measured: format!("{rec10_peak:.1} tps (5RU) vs {rec_peak:.1} tps (∞)"),
        holds: fig10_lower,
    });

    let fig11 = FigureId(11).build(runner).table;
    let (_, rec11_peak) = peak(&fig11, "recoverability");
    let (_, com11_peak) = peak(&fig11, "commutativity");
    claims.push(Claim {
        name: "RW/1RU: heavy resource contention".into(),
        paper: "throughput is very low and recoverability's peak is only slightly higher".into(),
        measured: format!(
            "peaks {rec11_peak:.1} vs {com11_peak:.1} tps, both far below the 5RU peak {rec10_peak:.1}"
        ),
        holds: rec11_peak >= com11_peak * 0.95 && rec11_peak < rec10_peak,
    });

    // ---- ADT model (Figures 14 and 17) ----
    let fig14 = FigureId(14).build(runner).table;
    let pr0 = "Pc=4, Pr=0";
    let pr4 = "Pc=4, Pr=4";
    let pr8 = "Pc=4, Pr=8";
    let v = |mpl: &str, col: &str| fig14.value(mpl, col).unwrap_or(0.0);
    let imp_pr4 = improvement_percent(v("25", pr4), v("25", pr0));
    claims.push(Claim {
        name: "ADT/∞ Pc=4: Pr=4 vs Pr=0 at mpl=25".into(),
        paper: "≈15% higher throughput".into(),
        measured: format!(
            "{imp_pr4:.0}% higher ({:.1} vs {:.1} tps)",
            v("25", pr4),
            v("25", pr0)
        ),
        holds: imp_pr4 > 0.0,
    });
    let ratio_pr8 = if v("50", pr0) > 0.0 {
        v("50", pr8) / v("50", pr0)
    } else {
        0.0
    };
    claims.push(Claim {
        name: "ADT/∞ Pc=4: Pr=8 vs Pr=0 at mpl=50".into(),
        paper: "more than double the throughput".into(),
        measured: format!(
            "{ratio_pr8:.2}x ({:.1} vs {:.1} tps)",
            v("50", pr8),
            v("50", pr0)
        ),
        holds: ratio_pr8 > 1.3,
    });
    let knee_shifts = {
        // Pr=8 should not have collapsed at mpl=50 the way Pr=0 has: its
        // mpl=50 throughput stays at or above its mpl=25 throughput more
        // than Pr=0 does.
        let drop0 = v("50", pr0) / v("25", pr0).max(f64::EPSILON);
        let drop8 = v("50", pr8) / v("25", pr8).max(f64::EPSILON);
        drop8 >= drop0
    };
    claims.push(Claim {
        name: "ADT/∞: thrashing sets in later for higher Pr".into(),
        paper: "for Pr=8 thrashing starts only at mpl=50 (mpl=25 for Pr=0 and 4)".into(),
        measured: format!("relative mpl-25→50 retention: Pr=8 vs Pr=0 = ok:{knee_shifts}"),
        holds: knee_shifts,
    });

    let fig17 = FigureId(17).build(runner).table;
    let v17 = |mpl: &str, col: &str| fig17.value(mpl, col).unwrap_or(0.0);
    let imp17 = improvement_percent(v17("50", pr8), v17("50", pr0));
    claims.push(Claim {
        name: "ADT/5RU Pc=4: Pr=8 vs Pr=0 at mpl=50".into(),
        paper: "≈35% higher throughput".into(),
        measured: format!(
            "{imp17:.0}% higher ({:.1} vs {:.1} tps)",
            v17("50", pr8),
            v17("50", pr0)
        ),
        holds: imp17 > 0.0,
    });

    Summary { claims }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_and_improvement_helpers() {
        let mut t = SeriesTable::new("mpl", vec!["a".to_owned()]);
        t.push_row("10", vec![5.0]);
        t.push_row("25", vec![9.0]);
        t.push_row("50", vec![7.0]);
        let (mpl, v) = peak(&t, "a");
        assert_eq!(mpl, "25");
        assert_eq!(v, 9.0);
        assert!((improvement_percent(15.0, 10.0) - 50.0).abs() < 1e-9);
        assert_eq!(improvement_percent(15.0, 0.0), 0.0);
    }

    #[test]
    fn summary_rendering() {
        let s = Summary {
            claims: vec![
                Claim {
                    name: "x".into(),
                    paper: "p".into(),
                    measured: "m".into(),
                    holds: true,
                },
                Claim {
                    name: "y".into(),
                    paper: "p".into(),
                    measured: "m".into(),
                    holds: false,
                },
            ],
        };
        assert!(!s.all_hold());
        let text = s.render_text();
        assert!(text.contains("[ok] x"));
        assert!(text.contains("[!!] y"));
        assert!(text.contains("1/2"));
    }
}
