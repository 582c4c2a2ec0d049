//! Symbolic linear expressions over loop-entry values.

use chimera_minic::ir::{GlobalId, LocalId};
use std::collections::BTreeMap;
use std::fmt;

/// A symbol: a quantity whose value is fixed at loop entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// The value of a (loop-invariant) register local at loop entry.
    Entry(LocalId),
    /// The base address of a global.
    GlobalBase(GlobalId),
    /// The base address of a slot local of the current frame.
    SlotBase(LocalId),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Entry(l) => write!(f, "{l}@entry"),
            Sym::GlobalBase(g) => write!(f, "&{g}"),
            Sym::SlotBase(l) => write!(f, "&{l}"),
        }
    }
}

/// A linear expression `Σ coeff·sym + konst` over loop-entry symbols.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymExpr {
    /// Non-zero coefficients per symbol.
    pub terms: BTreeMap<Sym, i64>,
    /// Constant term.
    pub konst: i64,
}

impl SymExpr {
    /// The constant expression `k`.
    pub fn konst(k: i64) -> SymExpr {
        SymExpr {
            terms: BTreeMap::new(),
            konst: k,
        }
    }

    /// The expression `1·sym`.
    pub fn sym(s: Sym) -> SymExpr {
        let mut terms = BTreeMap::new();
        terms.insert(s, 1);
        SymExpr { terms, konst: 0 }
    }

    /// True if the expression has no symbolic part.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &SymExpr) -> SymExpr {
        let mut out = self.clone();
        out.konst += other.konst;
        for (s, c) in &other.terms {
            let e = out.terms.entry(*s).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(s);
            }
        }
        out
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &SymExpr) -> SymExpr {
        self.add(&other.scale(-1))
    }

    /// Multiply by a constant.
    pub fn scale(&self, k: i64) -> SymExpr {
        if k == 0 {
            return SymExpr::konst(0);
        }
        SymExpr {
            terms: self.terms.iter().map(|(s, c)| (*s, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// Add a constant.
    pub fn offset(&self, k: i64) -> SymExpr {
        let mut out = self.clone();
        out.konst += k;
        out
    }

    /// Evaluate given concrete symbol values (for tests). Missing symbols
    /// evaluate to 0.
    pub fn eval(&self, values: &BTreeMap<Sym, i64>) -> i64 {
        self.konst
            + self
                .terms
                .iter()
                .map(|(s, c)| c * values.get(s).copied().unwrap_or(0))
                .sum::<i64>()
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, c) in &self.terms {
            if first {
                write!(f, "{c}*{s}")?;
                first = false;
            } else {
                write!(f, " + {c}*{s}")?;
            }
        }
        if first {
            write!(f, "{}", self.konst)
        } else if self.konst != 0 {
            write!(f, " + {}", self.konst)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> Sym {
        Sym::Entry(LocalId(i))
    }

    #[test]
    fn add_and_cancel() {
        let a = SymExpr::sym(l(0)).offset(3);
        let b = SymExpr::sym(l(0)).scale(-1).offset(4);
        let s = a.add(&b);
        assert!(s.is_const());
        assert_eq!(s.konst, 7);
    }

    #[test]
    fn scale_distributes() {
        let a = SymExpr::sym(l(1)).offset(2).scale(3);
        assert_eq!(a.terms.get(&l(1)), Some(&3));
        assert_eq!(a.konst, 6);
    }

    #[test]
    fn eval_concrete() {
        let mut vals = BTreeMap::new();
        vals.insert(l(0), 10);
        vals.insert(l(1), -2);
        let e = SymExpr::sym(l(0)).scale(2).add(&SymExpr::sym(l(1))).offset(5);
        assert_eq!(e.eval(&vals), 23);
    }

    #[test]
    fn display_readable() {
        let e = SymExpr::sym(l(0)).scale(4).offset(-1);
        assert_eq!(e.to_string(), "4*%0@entry + -1");
        assert_eq!(SymExpr::konst(9).to_string(), "9");
    }
}
