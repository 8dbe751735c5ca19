//! AIG literals: node references with a complement bit.

use std::fmt;
use std::ops::Not;

/// A reference to an AIG node together with a complement (inversion) flag,
/// packed AIGER-style: `raw = 2 * node_index + complemented`.
///
/// Node 0 is the constant-false node, so [`Lit::FALSE`] has raw value 0 and
/// [`Lit::TRUE`] raw value 1, exactly matching the AIGER file format.
///
/// # Examples
///
/// ```
/// use lsml_aig::Lit;
///
/// let a = Lit::new(3, false);
/// assert_eq!(a.node(), 3);
/// assert!(!a.is_complemented());
/// assert_eq!((!a).raw(), a.raw() ^ 1);
/// assert_eq!(!Lit::TRUE, Lit::FALSE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal (node 0, uncomplemented).
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: Lit = Lit(1);

    /// Creates a literal referring to `node`, optionally complemented.
    #[inline]
    pub fn new(node: u32, complemented: bool) -> Self {
        Lit(node << 1 | u32::from(complemented))
    }

    /// The packed AIGER encoding (`2 * node + complemented`).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The index of the referenced node.
    #[inline]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge is complemented.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the two constant literals.
    #[inline]
    pub fn is_constant(self) -> bool {
        self.node() == 0
    }

    /// This literal with its complement flag forced to `complemented`.
    #[inline]
    pub fn with_complement(self, complemented: bool) -> Lit {
        Lit(self.0 & !1 | u32::from(complemented))
    }

    /// The constant literal for a Boolean value.
    #[inline]
    pub fn constant(value: bool) -> Lit {
        if value {
            Lit::TRUE
        } else {
            Lit::FALSE
        }
    }

    /// XORs the complement flag with `flip`.
    #[inline]
    pub fn complement_if(self, flip: bool) -> Lit {
        Lit(self.0 ^ u32::from(flip))
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Lit::FALSE {
            f.write_str("Lit(0)")
        } else if *self == Lit::TRUE {
            f.write_str("Lit(1)")
        } else {
            write!(
                f,
                "Lit({}n{})",
                if self.is_complemented() { "!" } else { "" },
                self.node()
            )
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_matches_aiger_convention() {
        assert_eq!(Lit::FALSE.raw(), 0);
        assert_eq!(Lit::TRUE.raw(), 1);
        assert_eq!(Lit::new(5, false).raw(), 10);
        assert_eq!(Lit::new(5, true).raw(), 11);
    }

    #[test]
    fn not_flips_only_complement() {
        let a = Lit::new(7, false);
        assert_eq!(!a, Lit::new(7, true));
        assert_eq!(!!a, a);
    }

    #[test]
    fn constants() {
        assert!(Lit::FALSE.is_constant());
        assert!(Lit::TRUE.is_constant());
        assert!(!Lit::new(1, false).is_constant());
        assert_eq!(Lit::constant(true), Lit::TRUE);
        assert_eq!(Lit::constant(false), Lit::FALSE);
    }

    #[test]
    fn complement_helpers() {
        let a = Lit::new(3, false);
        assert_eq!(a.complement_if(true), !a);
        assert_eq!(a.complement_if(false), a);
        assert_eq!(a.with_complement(true), !a);
        assert_eq!((!a).with_complement(false), a);
    }
}
