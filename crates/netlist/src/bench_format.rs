//! Reader and writer for the ISCAS-89 `.bench` netlist format.
//!
//! The format, as used by the ISCAS-89 and ITC-99 benchmark distributions:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G8 = AND(G14, G6)
//! ```
//!
//! Signals may be defined after they are referenced (the sequential feedback
//! in every ISCAS-89 circuit requires this), so parsing is two-pass.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::circuit::{Circuit, NetId, NodeKind};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// One parsed statement of a `.bench` file.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Stmt {
    Input(String),
    Output(String),
    Dff {
        out: String,
        d: String,
    },
    Gate {
        out: String,
        kind: GateKind,
        fanin: Vec<String>,
    },
    Const {
        out: String,
        value: bool,
    },
}

fn parse_line(line_no: usize, line: &str) -> Result<Option<Stmt>, NetlistError> {
    let line = match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    };
    let line = line.trim();
    if line.is_empty() {
        return Ok(None);
    }
    let syntax = |message: &str| NetlistError::Syntax {
        line: line_no,
        message: message.to_string(),
    };
    // INPUT(x) / OUTPUT(x)
    for (prefix, is_input) in [("INPUT", true), ("OUTPUT", false)] {
        if let Some(rest) = line
            .strip_prefix(prefix)
            .map(str::trim_start)
            .filter(|r| r.starts_with('('))
        {
            let inner = rest
                .strip_prefix('(')
                .and_then(|r| r.trim_end().strip_suffix(')'))
                .ok_or_else(|| syntax("expected `(name)`"))?
                .trim();
            if inner.is_empty() {
                return Err(syntax("empty signal name"));
            }
            return Ok(Some(if is_input {
                Stmt::Input(inner.to_string())
            } else {
                Stmt::Output(inner.to_string())
            }));
        }
    }
    // out = KIND(a, b, ...)
    let (out, rhs) = line
        .split_once('=')
        .ok_or_else(|| syntax("expected `name = GATE(...)`"))?;
    let out = out.trim();
    if out.is_empty() {
        return Err(syntax("empty signal name before `=`"));
    }
    let rhs = rhs.trim();
    // Constants: `x = vcc` / `x = gnd` (some dialects).
    match rhs.to_ascii_uppercase().as_str() {
        "VCC" | "ONE" => {
            return Ok(Some(Stmt::Const {
                out: out.to_string(),
                value: true,
            }))
        }
        "GND" | "ZERO" => {
            return Ok(Some(Stmt::Const {
                out: out.to_string(),
                value: false,
            }))
        }
        _ => {}
    }
    let open = rhs
        .find('(')
        .ok_or_else(|| syntax("expected `GATE(...)`"))?;
    let close = rhs
        .rfind(')')
        .ok_or_else(|| syntax("missing closing `)`"))?;
    if close < open {
        return Err(syntax("mismatched parentheses"));
    }
    let kind_str = rhs[..open].trim();
    let args: Vec<String> = rhs[open + 1..close]
        .split(',')
        .map(|a| a.trim().to_string())
        .collect();
    if args.iter().any(String::is_empty) {
        return Err(syntax("empty fanin name"));
    }
    if kind_str.eq_ignore_ascii_case("DFF") {
        if args.len() != 1 {
            return Err(syntax("DFF takes exactly one fanin"));
        }
        return Ok(Some(Stmt::Dff {
            out: out.to_string(),
            d: args.into_iter().next().expect("checked length"),
        }));
    }
    let kind: GateKind = kind_str.parse()?;
    if kind.is_unary() && args.len() != 1 {
        return Err(NetlistError::BadArity {
            gate: out.to_string(),
            kind: kind.bench_name(),
            arity: args.len(),
        });
    }
    if args.is_empty() {
        return Err(syntax("gate with no fanins"));
    }
    Ok(Some(Stmt::Gate {
        out: out.to_string(),
        kind,
        fanin: args,
    }))
}

/// Parses a circuit from `.bench` source text.
///
/// # Errors
///
/// Returns a [`NetlistError`] on syntax errors, unknown gates, duplicate or
/// undefined signals, unconnected flip-flops, or combinational cycles.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), rls_netlist::NetlistError> {
/// let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
/// let c = rls_netlist::parse_bench("inv", src)?;
/// assert_eq!(c.num_gates(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(name: &str, source: &str) -> Result<Circuit, NetlistError> {
    let mut stmts = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(stmt) = parse_line(i + 1, line)? {
            stmts.push(stmt);
        }
    }
    let mut circuit = Circuit::new(name);
    let mut defined: HashMap<String, NetId> = HashMap::new();
    // Pass 1: create nodes for inputs, constants, and DFF placeholders, and
    // detect duplicate definitions.
    let mut definition_names: Vec<&str> = Vec::new();
    for stmt in &stmts {
        match stmt {
            Stmt::Input(n) => definition_names.push(n),
            Stmt::Dff { out, .. } => definition_names.push(out),
            Stmt::Gate { out, .. } => definition_names.push(out),
            Stmt::Const { out, .. } => definition_names.push(out),
            Stmt::Output(_) => {}
        }
    }
    {
        let mut seen = HashMap::new();
        for n in &definition_names {
            if seen.insert(*n, ()).is_some() {
                return Err(NetlistError::DuplicateSignal(n.to_string()));
            }
        }
    }
    for stmt in &stmts {
        match stmt {
            Stmt::Input(n) => {
                defined.insert(n.clone(), circuit.add_input(n.clone()));
            }
            Stmt::Const { out, value } => {
                defined.insert(out.clone(), circuit.add_const(out.clone(), *value));
            }
            Stmt::Dff { out, .. } => {
                defined.insert(out.clone(), circuit.add_dff_placeholder(out.clone()));
            }
            _ => {}
        }
    }
    // Pass 2: create gates in an order where fanins exist. Iterate until
    // fixpoint; `.bench` gate definitions may be in any order but the
    // combinational core is acyclic, so this terminates.
    let mut remaining: Vec<&Stmt> = stmts
        .iter()
        .filter(|s| matches!(s, Stmt::Gate { .. }))
        .collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|stmt| {
            let Stmt::Gate { out, kind, fanin } = stmt else {
                unreachable!("filtered to gates only")
            };
            let resolved: Option<Vec<NetId>> =
                fanin.iter().map(|f| defined.get(f).copied()).collect();
            match resolved {
                Some(ids) => {
                    defined.insert(out.clone(), circuit.add_gate(out.clone(), *kind, ids));
                    false
                }
                None => true,
            }
        });
        if remaining.len() == before {
            // No progress: an undefined signal or a combinational cycle.
            let Stmt::Gate { out, fanin, .. } = remaining[0] else {
                unreachable!("filtered to gates only")
            };
            let missing = fanin
                .iter()
                .find(|f| !defined.contains_key(*f))
                .cloned()
                .unwrap_or_else(|| out.clone());
            // Distinguish: truly undefined vs. defined-later-in-cycle.
            if definition_names.iter().any(|n| *n == missing) {
                return Err(NetlistError::CombinationalCycle(missing));
            }
            return Err(NetlistError::UndefinedSignal(missing));
        }
    }
    // Pass 3: connect DFF data inputs and outputs.
    for stmt in &stmts {
        match stmt {
            Stmt::Dff { out, d } => {
                let ff = defined[out.as_str()];
                let d = *defined
                    .get(d)
                    .ok_or_else(|| NetlistError::UndefinedSignal(d.clone()))?;
                circuit
                    .connect_dff(ff, d)
                    .expect("placeholder by construction");
            }
            Stmt::Output(n) => {
                let id = *defined
                    .get(n)
                    .ok_or_else(|| NetlistError::UndefinedSignal(n.clone()))?;
                circuit.add_output(id);
            }
            _ => {}
        }
    }
    circuit.validated()
}

/// Serializes a circuit to `.bench` source text.
///
/// The output parses back ([`parse_bench`]) to a circuit with identical
/// structure (names, kinds, connectivity, port order).
pub fn write_bench(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} flip-flops, {} gates",
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_dffs(),
        circuit.num_gates()
    );
    for &i in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.node(i).name);
    }
    for &o in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.node(o).name);
    }
    for &ff in circuit.dffs() {
        let node = circuit.node(ff);
        if let NodeKind::Dff { d: Some(d) } = &node.kind {
            let _ = writeln!(out, "{} = DFF({})", node.name, circuit.node(*d).name);
        }
    }
    for node in circuit.nodes() {
        if let NodeKind::Gate { kind, fanin } = &node.kind {
            let args: Vec<&str> = fanin
                .iter()
                .map(|f| circuit.node(*f).name.as_str())
                .collect();
            let _ = writeln!(out, "{} = {}({})", node.name, kind, args.join(", "));
        } else if let NodeKind::Const(v) = &node.kind {
            let _ = writeln!(out, "{} = {}", node.name, if *v { "vcc" } else { "gnd" });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const INV: &str = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";

    #[test]
    fn parse_minimal() {
        let c = parse_bench("inv", INV).unwrap();
        assert_eq!(c.num_inputs(), 1);
        assert_eq!(c.num_outputs(), 1);
        assert_eq!(c.num_gates(), 1);
        assert_eq!(c.num_dffs(), 0);
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let src = "# header\n\nINPUT(a)\n  # indented comment\nOUTPUT(y)\ny = NOT(a) # trailing\n";
        let c = parse_bench("inv", src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn parse_sequential_feedback() {
        // DFF referenced before its gate is defined and vice versa.
        let src = "INPUT(en)\nOUTPUT(q)\nq = DFF(d)\nnq = NOT(q)\nd = AND(en, nq)\n";
        let c = parse_bench("toggle", src).unwrap();
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_gates(), 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn parse_out_of_order_gates() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = NOT(a)\n";
        let c = parse_bench("chain", src).unwrap();
        assert_eq!(c.num_gates(), 2);
    }

    #[test]
    fn parse_rejects_undefined_signal() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        assert_eq!(
            parse_bench("bad", src).unwrap_err(),
            NetlistError::UndefinedSignal("ghost".into())
        );
    }

    #[test]
    fn parse_rejects_duplicate_definition() {
        let src = "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n";
        assert_eq!(
            parse_bench("bad", src).unwrap_err(),
            NetlistError::DuplicateSignal("a".into())
        );
    }

    #[test]
    fn parse_rejects_comb_cycle() {
        let src = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = OR(x, a)\n";
        assert!(matches!(
            parse_bench("bad", src).unwrap_err(),
            NetlistError::CombinationalCycle(_)
        ));
    }

    #[test]
    fn parse_rejects_unknown_gate() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = MAJ3(a, a, a)\n";
        assert_eq!(
            parse_bench("bad", src).unwrap_err(),
            NetlistError::UnknownGate("MAJ3".into())
        );
    }

    #[test]
    fn parse_rejects_bad_syntax() {
        for src in ["INPUT a\n", "y NOT(a)\n", "y = NOT(a\n", " = NOT(a)\n"] {
            assert!(
                matches!(parse_bench("bad", src), Err(NetlistError::Syntax { .. })),
                "{src:?}"
            );
        }
    }

    #[test]
    fn syntax_errors_carry_the_line_number_and_message() {
        // One case per distinct syntax diagnostic, each with the error on
        // a different line so the reported number is provably the line's,
        // not a constant.
        let cases: &[(&str, usize, &str)] = &[
            ("INPUT(a)\nOUTPUT(y\n", 2, "expected `(name)`"),
            ("# comment\n\nINPUT( )\n", 3, "empty signal name"),
            ("INPUT(a)\ny NOT(a)\n", 2, "expected `name = GATE(...)`"),
            (" = NOT(a)\n", 1, "empty signal name before `=`"),
            ("INPUT(a)\n\ny = NOT\n", 3, "expected `GATE(...)`"),
            ("y = NOT(a\n", 1, "missing closing `)`"),
            ("y = NOT)a(\n", 1, "mismatched parentheses"),
            ("INPUT(a)\ny = AND(a, )\n", 2, "empty fanin name"),
            (
                "INPUT(a)\nINPUT(b)\nq = DFF(a, b)\n",
                3,
                "DFF takes exactly one fanin",
            ),
        ];
        for (src, line, message) in cases {
            assert_eq!(
                parse_bench("bad", src).unwrap_err(),
                NetlistError::Syntax {
                    line: *line,
                    message: (*message).to_string(),
                },
                "source: {src:?}"
            );
        }
    }

    #[test]
    fn bad_arity_reports_gate_kind_and_count() {
        let cases: &[(&str, &str, &str, usize)] = &[
            ("INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n", "y", "NOT", 2),
            ("INPUT(a)\nz = BUF(a, a, a)\n", "z", "BUF", 3),
        ];
        for (src, gate, kind, arity) in cases {
            assert_eq!(
                parse_bench("bad", src).unwrap_err(),
                NetlistError::BadArity {
                    gate: (*gate).to_string(),
                    kind,
                    arity: *arity,
                },
                "source: {src:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_binary_not() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n";
        assert!(matches!(
            parse_bench("bad", src).unwrap_err(),
            NetlistError::BadArity { .. }
        ));
    }

    #[test]
    fn parse_dff_rejects_two_fanins() {
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n";
        assert!(matches!(
            parse_bench("bad", src).unwrap_err(),
            NetlistError::Syntax { .. }
        ));
    }

    #[test]
    fn parse_constants() {
        let src = "INPUT(a)\nOUTPUT(y)\none = vcc\ny = AND(a, one)\n";
        let c = parse_bench("tie", src).unwrap();
        assert_eq!(c.num_gates(), 1);
        let one = c.find("one").unwrap();
        assert_eq!(c.node(one).kind, NodeKind::Const(true));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let src = "INPUT(en)\nOUTPUT(q)\nOUTPUT(d)\nq = DFF(d)\nnq = NOT(q)\nd = AND(en, nq)\n";
        let c1 = parse_bench("toggle", src).unwrap();
        let text = write_bench(&c1);
        let c2 = parse_bench("toggle", &text).unwrap();
        assert_eq!(c1.num_inputs(), c2.num_inputs());
        assert_eq!(c1.num_outputs(), c2.num_outputs());
        assert_eq!(c1.num_dffs(), c2.num_dffs());
        assert_eq!(c1.num_gates(), c2.num_gates());
        // Port names preserved in order.
        let names = |c: &Circuit, ids: &[NetId]| -> Vec<String> {
            ids.iter().map(|&i| c.node(i).name.clone()).collect()
        };
        assert_eq!(names(&c1, c1.inputs()), names(&c2, c2.inputs()));
        assert_eq!(names(&c1, c1.outputs()), names(&c2, c2.outputs()));
        assert_eq!(names(&c1, c1.dffs()), names(&c2, c2.dffs()));
    }

    #[test]
    fn whitespace_tolerance() {
        let src = "  INPUT ( a )\nOUTPUT( y )\n y  =  NAND( a ,a )\n";
        let c = parse_bench("ws", src).unwrap();
        assert_eq!(c.num_gates(), 1);
        let y = c.find("y").unwrap();
        assert!(matches!(
            &c.node(y).kind,
            NodeKind::Gate {
                kind: GateKind::Nand,
                ..
            }
        ));
    }
}
