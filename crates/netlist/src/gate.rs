//! Logic gate kinds and their evaluation semantics.
//!
//! Evaluation is provided both for single `bool` values and for 64-wide
//! bit-parallel `u64` words (one independent machine per bit position), the
//! representation used by the fault simulator.

use std::fmt;
use std::str::FromStr;

use crate::error::NetlistError;

/// The kind of a combinational logic gate.
///
/// The set matches what the ISCAS-89 `.bench` format can express, which is
/// all the paper's benchmark circuits need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Multi-input AND.
    And,
    /// Multi-input NAND.
    Nand,
    /// Multi-input OR.
    Or,
    /// Multi-input NOR.
    Nor,
    /// Multi-input XOR (odd parity).
    Xor,
    /// Multi-input XNOR (even parity).
    Xnor,
    /// Single-input inverter.
    Not,
    /// Single-input buffer.
    Buf,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for random generation and
    /// exhaustive tests).
    pub const ALL: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];

    /// Evaluate the gate over boolean fanin values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length other than 1 for
    /// [`GateKind::Not`] / [`GateKind::Buf`].
    #[inline]
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        assert!(!inputs.is_empty(), "gate must have at least one fanin");
        match self {
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "NOT takes exactly one fanin");
                !inputs[0] // lint: panic-ok(pin indices fixed by gate arity)
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes exactly one fanin");
                inputs[0] // lint: panic-ok(pin indices fixed by gate arity)
            }
        }
    }

    /// Evaluate the gate over 64-wide bit-parallel words: bit `k` of the
    /// result is the gate's output in machine `k`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length other than 1 for
    /// [`GateKind::Not`] / [`GateKind::Buf`].
    #[inline]
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        self.eval_lanes(inputs)
    }

    /// Width-generic version of [`GateKind::eval_word`]: evaluates the gate
    /// over any bit-parallel lane word (e.g. `u64`, `rls_fsim::KernelWord`).
    ///
    /// The bounds are purely the bitwise operators, so this crate needs no
    /// knowledge of the lane-word trait: the folds are seeded from the
    /// first fanin instead of an all-zeros/all-ones identity constant.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, or has length other than 1 for
    /// [`GateKind::Not`] / [`GateKind::Buf`].
    #[inline]
    pub fn eval_lanes<W>(self, inputs: &[W]) -> W
    where
        W: Copy
            + std::ops::BitAnd<Output = W>
            + std::ops::BitOr<Output = W>
            + std::ops::BitXor<Output = W>
            + std::ops::Not<Output = W>,
    {
        let Some((&first, rest)) = inputs.split_first() else {
            panic!("gate must have at least one fanin"); // lint: panic-ok(empty fanin is a netlist construction bug)
        };
        match self {
            GateKind::And => rest.iter().fold(first, |acc, &w| acc & w),
            GateKind::Nand => !rest.iter().fold(first, |acc, &w| acc & w),
            GateKind::Or => rest.iter().fold(first, |acc, &w| acc | w),
            GateKind::Nor => !rest.iter().fold(first, |acc, &w| acc | w),
            GateKind::Xor => rest.iter().fold(first, |acc, &w| acc ^ w),
            GateKind::Xnor => !rest.iter().fold(first, |acc, &w| acc ^ w),
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "NOT takes exactly one fanin");
                !first
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes exactly one fanin");
                first
            }
        }
    }

    /// The controlling input value of the gate, if it has one.
    ///
    /// An input at the controlling value determines the output regardless of
    /// the other inputs (e.g. `0` for AND/NAND, `1` for OR/NOR). XOR-family
    /// and single-input gates have no controlling value.
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            GateKind::Xor | GateKind::Xnor | GateKind::Not | GateKind::Buf => None,
        }
    }

    /// Whether the gate inverts: output when all inputs are non-controlling
    /// (for AND/OR families), or parity inversion (XNOR), or plain inversion
    /// (NOT).
    #[inline]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// Output value when some input is at the controlling value.
    ///
    /// Returns `None` for gates without a controlling value.
    #[inline]
    pub fn controlled_output(self) -> Option<bool> {
        match self {
            GateKind::And => Some(false),
            GateKind::Nand => Some(true),
            GateKind::Or => Some(true),
            GateKind::Nor => Some(false),
            _ => None,
        }
    }

    /// Whether this kind requires exactly one fanin.
    #[inline]
    pub fn is_unary(self) -> bool {
        matches!(self, GateKind::Not | GateKind::Buf)
    }

    /// The canonical upper-case name used in `.bench` files.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

impl FromStr for GateKind {
    type Err = NetlistError;

    /// Parses a gate-kind name, case-insensitively. `BUFF` (the spelling used
    /// by some `.bench` dialects) is accepted as [`GateKind::Buf`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "AND" => Ok(GateKind::And),
            "NAND" => Ok(GateKind::Nand),
            "OR" => Ok(GateKind::Or),
            "NOR" => Ok(GateKind::Nor),
            "XOR" => Ok(GateKind::Xor),
            "XNOR" => Ok(GateKind::Xnor),
            "NOT" | "INV" => Ok(GateKind::Not),
            "BUF" | "BUFF" => Ok(GateKind::Buf),
            other => Err(NetlistError::UnknownGate(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_truth_table() {
        assert!(!GateKind::And.eval_bool(&[false, false]));
        assert!(!GateKind::And.eval_bool(&[false, true]));
        assert!(!GateKind::And.eval_bool(&[true, false]));
        assert!(GateKind::And.eval_bool(&[true, true]));
    }

    #[test]
    fn nand_truth_table() {
        assert!(GateKind::Nand.eval_bool(&[false, false]));
        assert!(GateKind::Nand.eval_bool(&[false, true]));
        assert!(!GateKind::Nand.eval_bool(&[true, true]));
    }

    #[test]
    fn or_nor_truth_tables() {
        assert!(!GateKind::Or.eval_bool(&[false, false]));
        assert!(GateKind::Or.eval_bool(&[true, false]));
        assert!(GateKind::Nor.eval_bool(&[false, false]));
        assert!(!GateKind::Nor.eval_bool(&[false, true]));
    }

    #[test]
    fn xor_is_odd_parity() {
        assert!(!GateKind::Xor.eval_bool(&[false, false, false]));
        assert!(GateKind::Xor.eval_bool(&[true, false, false]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, false]));
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(GateKind::Xnor.eval_bool(&[true, true, false]));
    }

    #[test]
    fn unary_gates() {
        assert!(GateKind::Not.eval_bool(&[false]));
        assert!(!GateKind::Not.eval_bool(&[true]));
        assert!(GateKind::Buf.eval_bool(&[true]));
        assert!(!GateKind::Buf.eval_bool(&[false]));
    }

    #[test]
    #[should_panic(expected = "exactly one fanin")]
    fn not_rejects_two_inputs() {
        GateKind::Not.eval_bool(&[true, false]);
    }

    #[test]
    fn word_eval_matches_bool_eval_exhaustively() {
        // For every kind and every 3-input combination, the word evaluation
        // must agree with the bool evaluation in every bit lane.
        for kind in GateKind::ALL {
            let arity = if kind.is_unary() { 1 } else { 3 };
            for combo in 0..(1u32 << arity) {
                let bools: Vec<bool> = (0..arity).map(|i| combo >> i & 1 == 1).collect();
                let words: Vec<u64> = bools
                    .iter()
                    .map(|&b| if b { !0u64 } else { 0u64 })
                    .collect();
                let expect = if kind.eval_bool(&bools) { !0u64 } else { 0u64 };
                assert_eq!(kind.eval_word(&words), expect, "{kind} {bools:?}");
            }
        }
    }

    #[test]
    fn word_eval_lanes_are_independent() {
        // Lane 0 = (a=0,b=1), lane 1 = (a=1,b=1).
        let a = 0b10u64;
        let b = 0b11u64;
        let out = GateKind::And.eval_word(&[a, b]);
        assert_eq!(out & 1, 0);
        assert_eq!(out >> 1 & 1, 1);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
    }

    #[test]
    fn controlled_outputs_follow_inversion() {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let cv = kind.controlling_value().unwrap();
            // Evaluate with one controlling input and one opposite input.
            let got = kind.eval_bool(&[cv, !cv]);
            assert_eq!(Some(got), kind.controlled_output(), "{kind}");
        }
    }

    #[test]
    fn parse_round_trips() {
        for kind in GateKind::ALL {
            let parsed: GateKind = kind.bench_name().parse().unwrap();
            assert_eq!(parsed, kind);
            let parsed_lower: GateKind = kind.bench_name().to_lowercase().parse().unwrap();
            assert_eq!(parsed_lower, kind);
        }
        assert_eq!("BUFF".parse::<GateKind>().unwrap(), GateKind::Buf);
        assert!("MAJ".parse::<GateKind>().is_err());
    }
}
