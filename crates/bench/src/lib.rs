//! Shared workload definitions for the `pnsym` benchmark harness.
//!
//! The paper's evaluation (Section 6) uses three scalable families for
//! Table 3 (Muller pipeline, dining philosophers, slotted ring) and the
//! Yoneda benchmark suite for Table 4 (DME at two levels of detail and the
//! JJreg register controllers). The original Table-4 nets are not publicly
//! archived, so scalable synthetic equivalents from `pnsym-net` are used —
//! see `DESIGN.md` for the substitution rationale.
//!
//! Two instance scales are provided: a *default* scale sized so the whole
//! harness runs in minutes on a laptop, and the *paper* scale matching the
//! instance names of the original tables (run with
//! `cargo run --release -p pnsym-bench --bin experiments -- table3 --paper-scale`).

use pnsym_net::nets::{
    dme, figure1, jjreg, muller, philosophers, slotted_ring, DmeStyle, JjregVariant,
};
use pnsym_net::PetriNet;

/// Which instance sizes to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Sizes that complete in seconds each; used by CI and Criterion.
    #[default]
    Default,
    /// The instance sizes named in the paper's tables (muller-30/40/50,
    /// phil-5/8/10, slot-5/7/9, DME-8/9, …). Several of these take minutes.
    Paper,
}

/// One benchmark instance: a display name and the generated net.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The row label used in the printed tables.
    pub name: String,
    /// The generated Petri net.
    pub net: PetriNet,
}

impl Workload {
    fn new(name: impl Into<String>, net: PetriNet) -> Self {
        Workload {
            name: name.into(),
            net,
        }
    }
}

/// The Table-3 workloads: Muller pipelines, dining philosophers and slotted
/// rings at the requested scale.
pub fn table3_workloads(scale: Scale) -> Vec<Workload> {
    let (muller_sizes, phil_sizes, slot_sizes): (Vec<usize>, Vec<usize>, Vec<usize>) = match scale {
        Scale::Default => (vec![8, 12, 16], vec![3, 4, 5], vec![3, 4, 5]),
        Scale::Paper => (vec![30, 40, 50], vec![5, 8, 10], vec![5, 7, 9]),
    };
    let mut out = Vec::new();
    for n in muller_sizes {
        out.push(Workload::new(format!("muller-{n}"), muller(n)));
    }
    for n in phil_sizes {
        out.push(Workload::new(format!("phil-{n}"), philosophers(n)));
    }
    for n in slot_sizes {
        out.push(Workload::new(format!("slot-{n}"), slotted_ring(n)));
    }
    out
}

/// The Table-4 workloads: DME rings at the "spec" and "circuit" levels of
/// detail plus the two JJreg-style register controllers.
pub fn table4_workloads(scale: Scale) -> Vec<Workload> {
    let (spec_sizes, cir_sizes): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Default => (vec![6, 8], vec![4, 5]),
        Scale::Paper => (vec![8, 9], vec![5, 7]),
    };
    let mut out = Vec::new();
    for n in spec_sizes {
        out.push(Workload::new(format!("DMEspec{n}"), dme(n, DmeStyle::Spec)));
    }
    for n in cir_sizes {
        out.push(Workload::new(
            format!("DMEcir{n}"),
            dme(n, DmeStyle::Circuit),
        ));
    }
    out.push(Workload::new("JJreg-a", jjreg(JjregVariant::A)));
    out.push(Workload::new("JJreg-b", jjreg(JjregVariant::B)));
    out
}

/// Resolves a textual net specifier — as used by the property files of
/// `experiments check` — to a generated net.
///
/// Accepted forms are the generator call syntax and the generated net
/// names:
///
/// * `figure1`
/// * `philosophers(4)` or `phil-4`
/// * `muller(8)` or `muller-8`
/// * `slotted_ring(3)` or `slot-3`
/// * `dme(3)`, `dme(3,spec)`, `dme(3,circuit)`, `dme-spec-3`, `dme-cir-3`
/// * `jjreg(a)`, `jjreg(b)`, `jjreg-a`, `jjreg-b`
///
/// Returns `None` for anything else.
pub fn net_by_spec(spec: &str) -> Option<PetriNet> {
    let spec = spec.trim();
    // Split `name(arg1,arg2)` into name + args; `name-arg` is normalised to
    // the same shape below.
    let (name, args): (&str, Vec<&str>) = match spec.find('(') {
        Some(open) if spec.ends_with(')') => (
            &spec[..open],
            spec[open + 1..spec.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect(),
        ),
        Some(_) => return None,
        None => (spec, Vec::new()),
    };
    let size = |args: &[&str], at: usize| args.get(at).and_then(|s| s.parse::<usize>().ok());
    match (name, args.as_slice()) {
        ("figure1", []) => Some(figure1()),
        ("philosophers" | "phil", [_]) => Some(philosophers(size(&args, 0)?)),
        ("muller", [_]) => Some(muller(size(&args, 0)?)),
        ("slotted_ring" | "slot", [_]) => Some(slotted_ring(size(&args, 0)?)),
        ("dme", [_]) => Some(dme(size(&args, 0)?, DmeStyle::Spec)),
        ("dme", [_, style]) => {
            let style = match *style {
                "spec" => DmeStyle::Spec,
                "circuit" | "cir" => DmeStyle::Circuit,
                _ => return None,
            };
            Some(dme(size(&args, 0)?, style))
        }
        ("jjreg", [variant]) => match *variant {
            "a" => Some(jjreg(JjregVariant::A)),
            "b" => Some(jjreg(JjregVariant::B)),
            _ => None,
        },
        (_, []) => {
            // Generated-name forms: `phil-4`, `muller-8`, `slot-3`,
            // `dme-spec-3`, `dme-cir-3`, `jjreg-a`.
            if let Some(rest) = name.strip_prefix("phil-") {
                return Some(philosophers(rest.parse().ok()?));
            }
            if let Some(rest) = name.strip_prefix("muller-") {
                return Some(muller(rest.parse().ok()?));
            }
            if let Some(rest) = name.strip_prefix("slot-") {
                return Some(slotted_ring(rest.parse().ok()?));
            }
            if let Some(rest) = name.strip_prefix("dme-spec-") {
                return Some(dme(rest.parse().ok()?, DmeStyle::Spec));
            }
            if let Some(rest) = name.strip_prefix("dme-cir-") {
                return Some(dme(rest.parse().ok()?, DmeStyle::Circuit));
            }
            match name {
                "jjreg-a" => Some(jjreg(JjregVariant::A)),
                "jjreg-b" => Some(jjreg(JjregVariant::B)),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_instances_are_moderate() {
        for w in table3_workloads(Scale::Default) {
            assert!(w.net.num_places() <= 80, "{} too large for CI", w.name);
        }
        assert_eq!(table3_workloads(Scale::Default).len(), 9);
        assert_eq!(table4_workloads(Scale::Default).len(), 6);
    }

    #[test]
    fn net_specs_resolve_in_both_syntaxes() {
        for (call, generated) in [
            ("philosophers(3)", "phil-3"),
            ("muller(8)", "muller-8"),
            ("slotted_ring(3)", "slot-3"),
            ("dme(3,spec)", "dme-spec-3"),
            ("dme(2,circuit)", "dme-cir-2"),
            ("jjreg(a)", "jjreg-a"),
        ] {
            let a = net_by_spec(call).unwrap_or_else(|| panic!("{call} resolves"));
            let b = net_by_spec(generated).unwrap_or_else(|| panic!("{generated} resolves"));
            assert_eq!(a.name(), b.name(), "{call} == {generated}");
        }
        assert_eq!(net_by_spec("figure1").unwrap().name(), "figure1");
        assert_eq!(net_by_spec("dme(3)").unwrap().name(), "dme-spec-3");
        assert_eq!(net_by_spec(" phil-4 ").unwrap().name(), "phil-4");
        for bad in [
            "nonsuch",
            "phil",
            "phil()",
            "phil(x)",
            "dme(3,weird)",
            "muller(3",
        ] {
            assert!(net_by_spec(bad).is_none(), "{bad} must not resolve");
        }
    }

    #[test]
    fn paper_scale_matches_the_table_names() {
        let names: Vec<String> = table3_workloads(Scale::Paper)
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert!(names.contains(&"muller-50".to_string()));
        assert!(names.contains(&"phil-10".to_string()));
        assert!(names.contains(&"slot-9".to_string()));
        let t4: Vec<String> = table4_workloads(Scale::Paper)
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert!(t4.contains(&"DMEspec8".to_string()));
        assert!(t4.contains(&"JJreg-b".to_string()));
    }

    #[test]
    fn paper_scale_variable_counts_match_table3() {
        // The paper's Table 3 reports the sparse variable counts; our
        // generators use 4 places per Muller stage and 5 per ring node, so
        // the sparse counts are directly comparable.
        let w: Vec<Workload> = table3_workloads(Scale::Paper);
        let muller30 = w.iter().find(|w| w.name == "muller-30").unwrap();
        assert_eq!(muller30.net.num_places(), 120, "matches the paper's V=120");
        let slot5 = w.iter().find(|w| w.name == "slot-5").unwrap();
        assert_eq!(slot5.net.num_places(), 25);
    }
}
