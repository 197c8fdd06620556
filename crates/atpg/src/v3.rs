//! Three-valued logic for test generation.

use rls_netlist::GateKind;

/// A three-valued logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum V3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl V3 {
    /// Converts a boolean.
    pub fn from_bool(b: bool) -> V3 {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// The boolean value, if known.
    pub fn known(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// Whether the value is unknown.
    pub fn is_x(self) -> bool {
        self == V3::X
    }
}

impl std::ops::Not for V3 {
    type Output = V3;

    /// Three-valued NOT (`X` stays `X`).
    fn not(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }
}

/// Evaluates a gate of `kind` over its input values, in one pass and
/// without collecting them: PODEM's implication calls it in place over
/// each gate's flat fanin list. A controlling input settles AND/OR-family
/// gates at once; any X input makes an XOR-family gate X. A unary gate
/// reads its first input (circuits give it exactly one) and is X with
/// none.
pub fn eval_gate(kind: GateKind, inputs: impl IntoIterator<Item = V3>) -> V3 {
    let mut inputs = inputs.into_iter();
    match kind {
        GateKind::And | GateKind::Nand => {
            let mut v = V3::One;
            for input in inputs {
                match input {
                    V3::Zero => {
                        v = V3::Zero;
                        break;
                    }
                    V3::X => v = V3::X,
                    V3::One => {}
                }
            }
            if kind == GateKind::Nand {
                !v
            } else {
                v
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut v = V3::Zero;
            for input in inputs {
                match input {
                    V3::One => {
                        v = V3::One;
                        break;
                    }
                    V3::X => v = V3::X,
                    V3::Zero => {}
                }
            }
            if kind == GateKind::Nor {
                !v
            } else {
                v
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut parity = kind == GateKind::Xnor;
            for input in inputs {
                match input.known() {
                    Some(b) => parity ^= b,
                    None => return V3::X,
                }
            }
            V3::from_bool(parity)
        }
        GateKind::Not => !inputs.next().unwrap_or(V3::X),
        GateKind::Buf => inputs.next().unwrap_or(V3::X),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values_match_boolean_semantics() {
        for kind in GateKind::ALL {
            let arity = if kind.is_unary() { 1 } else { 3 };
            for combo in 0..(1u32 << arity) {
                let bools: Vec<bool> = (0..arity).map(|i| combo >> i & 1 == 1).collect();
                let v3s: Vec<V3> = bools.iter().map(|&b| V3::from_bool(b)).collect();
                assert_eq!(
                    eval_gate(kind, v3s),
                    V3::from_bool(kind.eval_bool(&bools)),
                    "{kind} {bools:?}"
                );
            }
        }
    }

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(eval_gate(GateKind::And, [V3::Zero, V3::X]), V3::Zero);
        assert_eq!(eval_gate(GateKind::Nand, [V3::Zero, V3::X]), V3::One);
        assert_eq!(eval_gate(GateKind::Or, [V3::One, V3::X]), V3::One);
        assert_eq!(eval_gate(GateKind::Nor, [V3::One, V3::X]), V3::Zero);
    }

    #[test]
    fn x_propagates_when_undetermined() {
        assert_eq!(eval_gate(GateKind::And, [V3::One, V3::X]), V3::X);
        assert_eq!(eval_gate(GateKind::Or, [V3::Zero, V3::X]), V3::X);
        assert_eq!(eval_gate(GateKind::Xor, [V3::One, V3::X]), V3::X);
        assert_eq!(eval_gate(GateKind::Not, [V3::X]), V3::X);
    }

    #[test]
    fn not_algebra() {
        assert_eq!(!V3::Zero, V3::One);
        assert_eq!(!V3::One, V3::Zero);
        assert_eq!(!V3::X, V3::X);
    }

    #[test]
    fn default_is_x() {
        assert_eq!(V3::default(), V3::X);
        assert!(V3::X.is_x());
        assert_eq!(V3::X.known(), None);
        assert_eq!(V3::One.known(), Some(true));
    }
}
