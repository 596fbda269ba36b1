//! Tables I–X: the compatibility tables of the example data types and the
//! simulation parameter tables.

use sbcc_adt::{AdtSpec, Page, Set, Stack, TableObject};
use sbcc_sim::SimParams;

/// Render one of the paper's tables by number (1–10). Returns `None` for an
/// unknown table number.
pub fn render_table(number: usize) -> Option<String> {
    let text = match number {
        1 => format!("Table I — {}", Page::commutativity_table().render()),
        2 => format!("Table II — {}", Page::recoverability_table().render()),
        3 => format!("Table III — {}", Stack::commutativity_table().render()),
        4 => format!("Table IV — {}", Stack::recoverability_table().render()),
        5 => format!("Table V — {}", Set::commutativity_table().render()),
        6 => format!("Table VI — {}", Set::recoverability_table().render()),
        7 => format!(
            "Table VII — {}",
            TableObject::commutativity_table().render()
        ),
        8 => format!(
            "Table VIII — {}",
            TableObject::recoverability_table().render()
        ),
        9 => render_parameter_meanings(),
        10 => render_nominal_values(),
        _ => return None,
    };
    Some(text)
}

/// Table IX: the simulation parameters and their meanings.
pub fn render_parameter_meanings() -> String {
    let rows = [
        ("database_size", "Number of objects in the database"),
        ("num_of_terminals", "Number of terminals"),
        ("transaction_length", "Mean transaction length"),
        (
            "max_length",
            "Maximum number of operations in a transaction",
        ),
        (
            "min_length",
            "Minimum number of operations in a transaction",
        ),
        ("mpl_level", "Level of multiprogramming"),
        ("step_time", "Execution time of each operation"),
        ("cpu_time", "CPU time for accessing an object"),
        ("io_time", "I/O time for accessing an object"),
        ("resource_units", "Number of resource units"),
        ("ext_think_time", "Mean time between transactions"),
        ("write_probability", "Probability of a write operation"),
    ];
    let mut out = String::from("Table IX — Simulation parameters\n");
    for (name, meaning) in rows {
        out.push_str(&format!("  {name:<20} {meaning}\n"));
    }
    out
}

/// Table X: the nominal parameter values, taken from [`SimParams::default`].
pub fn render_nominal_values() -> String {
    let p = SimParams::default();
    let mut out = String::from("Table X — Parameters and their nominal values\n");
    out.push_str(&format!(
        "  {:<20} {} objects\n",
        "database_size", p.db_size
    ));
    out.push_str(&format!(
        "  {:<20} {}\n",
        "num_of_terminals", p.num_terminals
    ));
    out.push_str(&format!(
        "  {:<20} {} steps\n",
        "transaction_length",
        p.mean_length()
    ));
    out.push_str(&format!("  {:<20} {} steps\n", "min_length", p.min_length));
    out.push_str(&format!("  {:<20} {} steps\n", "max_length", p.max_length));
    out.push_str(&format!(
        "  {:<20} 10, 25, 50, 100, 150, 200\n",
        "mpl_level"
    ));
    out.push_str(&format!("  {:<20} {} seconds\n", "step_time", p.step_time));
    out.push_str(&format!("  {:<20} {} seconds\n", "cpu_time", p.cpu_time));
    out.push_str(&format!("  {:<20} {} seconds\n", "io_time", p.io_time));
    out.push_str(&format!(
        "  {:<20} {} second(s)\n",
        "ext_think_time", p.ext_think_time
    ));
    out.push_str(&format!("  {:<20} 0.3\n", "write_probability"));
    out
}

/// The multiprogramming levels the paper evaluates.
pub const PAPER_MPL_LEVELS: &[usize] = &[10, 25, 50, 100, 150, 200];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_tables_render() {
        for n in 1..=10 {
            let text = render_table(n).unwrap_or_else(|| panic!("table {n} missing"));
            assert!(!text.is_empty());
        }
        assert!(render_table(0).is_none());
        assert!(render_table(11).is_none());
    }

    #[test]
    fn compatibility_tables_mention_their_operations() {
        assert!(render_table(1).unwrap().contains("read"));
        assert!(render_table(3).unwrap().contains("push"));
        assert!(render_table(5).unwrap().contains("member"));
        assert!(render_table(8).unwrap().contains("size"));
    }

    #[test]
    fn table_iv_contains_the_push_push_yes_entry() {
        let t = render_table(4).unwrap();
        assert!(t.contains("push"));
        assert!(t.contains("Yes"));
        assert!(t.contains("No"));
    }

    #[test]
    fn parameter_tables_carry_the_nominal_values() {
        let ix = render_table(9).unwrap();
        assert!(ix.contains("mpl_level"));
        let x = render_table(10).unwrap();
        assert!(x.contains("1000 objects"));
        assert!(x.contains("200"));
        assert!(x.contains("0.05"));
        assert!(x.contains("0.3"));
        assert_eq!(PAPER_MPL_LEVELS.len(), 6);
    }
}
