//! Three-valued product terms.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;
use crate::pattern::Pattern;
use crate::{last_word_mask, words_for};

/// The value a cube assigns to one variable.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Trit {
    /// The variable appears complemented (`0` in PLA syntax).
    Zero,
    /// The variable appears uncomplemented (`1` in PLA syntax).
    One,
    /// The variable does not appear (`-` in PLA syntax).
    Dash,
}

/// A product term (cube) over `num_vars` Boolean variables.
///
/// Internally two bit masks per variable: `care` (the literal is present) and
/// `value` (its polarity, meaningful only where `care` is set). A cube denotes
/// the set of minterms agreeing with every present literal; a cube with no
/// literals is the universal cube (tautology).
///
/// # Examples
///
/// ```
/// use lsml_pla::{Cube, Pattern, Trit};
///
/// let c: Cube = "1-0-".parse()?;
/// assert_eq!(c.num_vars(), 4);
/// assert_eq!(c.literal_count(), 2);
/// assert_eq!(c.get(2), Trit::Zero);
/// assert!(c.contains(&Pattern::from_bools(&[true, true, false, false])));
/// # Ok::<(), lsml_pla::ParseError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    num_vars: usize,
    care: Vec<u64>,
    value: Vec<u64>,
}

impl Cube {
    /// The universal cube (no literals) over `num_vars` variables.
    pub fn universe(num_vars: usize) -> Self {
        let w = words_for(num_vars);
        Cube {
            num_vars,
            care: vec![0; w],
            value: vec![0; w],
        }
    }

    /// The cube containing exactly one minterm.
    pub fn from_pattern(p: &Pattern) -> Self {
        let num_vars = p.len();
        let mut care = vec![0u64; words_for(num_vars)];
        if let Some(last) = care.last_mut() {
            *last = 0;
        }
        for w in care.iter_mut() {
            *w = u64::MAX;
        }
        if let Some(last) = care.last_mut() {
            *last = last_word_mask(num_vars);
        }
        Cube {
            num_vars,
            care,
            value: p.words().to_vec(),
        }
    }

    /// Builds a cube from `(variable, polarity)` literal pairs.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn from_literals(num_vars: usize, literals: &[(usize, bool)]) -> Self {
        let mut c = Cube::universe(num_vars);
        for &(var, pol) in literals {
            c.set(var, if pol { Trit::One } else { Trit::Zero });
        }
        c
    }

    /// Number of variables in the cube's space.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The trit assigned to variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars()`.
    #[inline]
    pub fn get(&self, i: usize) -> Trit {
        assert!(i < self.num_vars, "variable index {i} out of range");
        let w = i / 64;
        let m = 1u64 << (i % 64);
        if self.care[w] & m == 0 {
            Trit::Dash
        } else if self.value[w] & m != 0 {
            Trit::One
        } else {
            Trit::Zero
        }
    }

    /// Sets the trit of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars()`.
    #[inline]
    pub fn set(&mut self, i: usize, t: Trit) {
        assert!(i < self.num_vars, "variable index {i} out of range");
        let w = i / 64;
        let m = 1u64 << (i % 64);
        match t {
            Trit::Dash => {
                self.care[w] &= !m;
                self.value[w] &= !m;
            }
            Trit::One => {
                self.care[w] |= m;
                self.value[w] |= m;
            }
            Trit::Zero => {
                self.care[w] |= m;
                self.value[w] &= !m;
            }
        }
    }

    /// Number of literals (non-dash positions).
    pub fn literal_count(&self) -> usize {
        self.care.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether this is the universal cube (no literals).
    pub fn is_universe(&self) -> bool {
        self.care.iter().all(|&w| w == 0)
    }

    /// Whether the minterm `p` satisfies every literal of the cube.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != num_vars()`.
    pub fn contains(&self, p: &Pattern) -> bool {
        assert_eq!(p.len(), self.num_vars, "pattern/cube arity mismatch");
        self.care
            .iter()
            .zip(self.value.iter())
            .zip(p.words().iter())
            .all(|((&c, &v), &pw)| (pw ^ v) & c == 0)
    }

    /// Whether `self` covers `other`, i.e. every minterm of `other` is a
    /// minterm of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn covers(&self, other: &Cube) -> bool {
        assert_eq!(self.num_vars, other.num_vars, "cube arity mismatch");
        for w in 0..self.care.len() {
            // Self may only constrain variables that other also constrains...
            if self.care[w] & !other.care[w] != 0 {
                return false;
            }
            // ...and with the same polarity.
            if (self.value[w] ^ other.value[w]) & self.care[w] != 0 {
                return false;
            }
        }
        true
    }

    /// The number of variables on which the two cubes have opposite literals.
    ///
    /// Distance 0 means the cubes intersect; distance 1 enables the consensus
    /// (resolution) operation.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn distance(&self, other: &Cube) -> usize {
        assert_eq!(self.num_vars, other.num_vars, "cube arity mismatch");
        let mut d = 0;
        for w in 0..self.care.len() {
            let both = self.care[w] & other.care[w];
            d += ((self.value[w] ^ other.value[w]) & both).count_ones() as usize;
        }
        d
    }

    /// Intersection of two cubes, or `None` if they conflict on a literal.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        assert_eq!(self.num_vars, other.num_vars, "cube arity mismatch");
        let mut care = vec![0u64; self.care.len()];
        let mut value = vec![0u64; self.care.len()];
        for w in 0..self.care.len() {
            let both = self.care[w] & other.care[w];
            if (self.value[w] ^ other.value[w]) & both != 0 {
                return None;
            }
            care[w] = self.care[w] | other.care[w];
            value[w] = (self.value[w] & self.care[w]) | (other.value[w] & other.care[w]);
        }
        Some(Cube {
            num_vars: self.num_vars,
            care,
            value,
        })
    }

    /// The consensus (resolvent) of two cubes at distance exactly one: the
    /// largest cube contained in their union that spans both. Returns `None`
    /// if the distance is not one.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        if self.distance(other) != 1 {
            return None;
        }
        // Find the clashing variable and drop it from both sides.
        let mut merged = Cube::universe(self.num_vars);
        for w in 0..self.care.len() {
            let both = self.care[w] & other.care[w];
            let clash = (self.value[w] ^ other.value[w]) & both;
            let keep_self = self.care[w] & !clash;
            let keep_other = other.care[w] & !clash;
            merged.care[w] = keep_self | keep_other;
            merged.value[w] = (self.value[w] & keep_self) | (other.value[w] & keep_other);
        }
        // The merged literals must be consistent where both sides kept them
        // (guaranteed by distance == 1).
        Some(merged)
    }

    /// Restricts the cube by assigning variable `var` to `polarity`:
    /// returns `None` if the cube requires the opposite polarity; otherwise
    /// the cube with that literal removed (cofactor).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars()`.
    pub fn cofactor(&self, var: usize, polarity: bool) -> Option<Cube> {
        match (self.get(var), polarity) {
            (Trit::One, false) | (Trit::Zero, true) => None,
            _ => {
                let mut c = self.clone();
                c.set(var, Trit::Dash);
                Some(c)
            }
        }
    }

    /// Removes the literal on `var`, enlarging the cube.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars()`.
    pub fn without_literal(&self, var: usize) -> Cube {
        let mut c = self.clone();
        c.set(var, Trit::Dash);
        c
    }

    /// Iterates over the `(variable, polarity)` literals present in the cube.
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        (0..self.num_vars).filter_map(move |i| match self.get(i) {
            Trit::Dash => None,
            Trit::One => Some((i, true)),
            Trit::Zero => Some((i, false)),
        })
    }

    /// Any single minterm contained in the cube (dashes become zeros).
    pub fn some_pattern(&self) -> Pattern {
        let mut p = Pattern::zeros(self.num_vars);
        for (var, pol) in self.literals() {
            if pol {
                p.set(var, true);
            }
        }
        p
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.num_vars {
            f.write_str(match self.get(i) {
                Trit::Zero => "0",
                Trit::One => "1",
                Trit::Dash => "-",
            })?;
        }
        Ok(())
    }
}

impl FromStr for Cube {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut c = Cube::universe(s.len());
        for (i, ch) in s.chars().enumerate() {
            match ch {
                '0' => c.set(i, Trit::Zero),
                '1' => c.set(i, Trit::One),
                '-' | '~' | '2' => {}
                other => {
                    return Err(ParseError::new(format!(
                        "invalid cube character `{other}` at position {i}"
                    )))
                }
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> Cube {
        s.parse().expect("valid cube")
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["1-0", "----", "1", "0", "10-1-0"] {
            assert_eq!(cube(s).to_string(), s);
        }
    }

    #[test]
    fn contains_checks_only_care_bits() {
        let c = cube("1-0");
        assert!(c.contains(&Pattern::from_bools(&[true, false, false])));
        assert!(c.contains(&Pattern::from_bools(&[true, true, false])));
        assert!(!c.contains(&Pattern::from_bools(&[false, true, false])));
        assert!(!c.contains(&Pattern::from_bools(&[true, true, true])));
    }

    #[test]
    fn universe_contains_everything() {
        let c = Cube::universe(5);
        assert!(c.is_universe());
        for idx in 0..32 {
            assert!(c.contains(&Pattern::from_index(idx, 5)));
        }
    }

    #[test]
    fn covers_is_superset_relation() {
        assert!(cube("1--").covers(&cube("1-0")));
        assert!(cube("---").covers(&cube("101")));
        assert!(!cube("1-0").covers(&cube("1--")));
        assert!(!cube("1--").covers(&cube("0--")));
        assert!(cube("1-0").covers(&cube("1-0")));
    }

    #[test]
    fn distance_counts_conflicts() {
        assert_eq!(cube("10-").distance(&cube("11-")), 1);
        assert_eq!(cube("10-").distance(&cube("01-")), 2);
        assert_eq!(cube("1--").distance(&cube("-0-")), 0);
    }

    #[test]
    fn intersect_merges_or_conflicts() {
        let i = cube("1--").intersect(&cube("-01")).expect("compatible");
        assert_eq!(i.to_string(), "101");
        assert!(cube("1--").intersect(&cube("0--")).is_none());
    }

    #[test]
    fn consensus_resolves_single_clash() {
        // x y + x' z  =>  consensus on x is y z.
        let r = cube("11-").consensus(&cube("0-1")).expect("distance 1");
        assert_eq!(r.to_string(), "-11");
        assert!(cube("11-").consensus(&cube("00-")).is_none()); // distance 2
        assert!(cube("1--").consensus(&cube("-1-")).is_none()); // distance 0
    }

    #[test]
    fn cofactor_drops_or_kills() {
        let c = cube("1-0");
        assert_eq!(c.cofactor(0, true).expect("compatible").to_string(), "--0");
        assert!(c.cofactor(0, false).is_none());
        assert_eq!(c.cofactor(1, true).expect("dash ok").to_string(), "1-0");
    }

    #[test]
    fn from_pattern_is_full_care() {
        let p = Pattern::from_bools(&[true, false, true]);
        let c = Cube::from_pattern(&p);
        assert_eq!(c.literal_count(), 3);
        assert!(c.contains(&p));
        assert!(!c.contains(&Pattern::from_bools(&[true, true, true])));
    }

    #[test]
    fn literals_iterates_in_order() {
        let lits: Vec<_> = cube("1-0").literals().collect();
        assert_eq!(lits, vec![(0, true), (2, false)]);
    }

    #[test]
    fn from_literals_matches_manual() {
        let c = Cube::from_literals(4, &[(0, true), (3, false)]);
        assert_eq!(c.to_string(), "1--0");
    }

    #[test]
    fn wide_cubes_cross_word_boundaries() {
        let mut c = Cube::universe(130);
        c.set(0, Trit::One);
        c.set(64, Trit::Zero);
        c.set(129, Trit::One);
        assert_eq!(c.literal_count(), 3);
        let mut p = Pattern::zeros(130);
        p.set(0, true);
        p.set(129, true);
        assert!(c.contains(&p));
        p.set(64, true);
        assert!(!c.contains(&p));
    }
}
