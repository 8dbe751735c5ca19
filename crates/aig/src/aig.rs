//! The core AIG graph.

use std::collections::HashMap;
use std::fmt;

use crate::fxhash::FxHashMap;
use crate::lit::Lit;

/// One AND node: two fanin literals. Constant and input nodes store
/// `(FALSE, FALSE)` as a sentinel and are distinguished by index.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct Node {
    pub f0: Lit,
    pub f1: Lit,
}

/// An And-Inverter Graph with structural hashing and constant folding.
///
/// Node indices are laid out AIGER-style: node 0 is the constant-false node,
/// nodes `1..=num_inputs` are the primary inputs, and every later node is a
/// two-input AND. Edges ([`Lit`]) may be complemented. The graph grows
/// append-only; [`Aig::cleanup`] compacts away logic unreachable from the
/// outputs.
///
/// # Examples
///
/// ```
/// use lsml_aig::Aig;
///
/// let mut aig = Aig::new(2);
/// let (a, b) = (aig.input(0), aig.input(1));
/// let f = aig.or(a, b);
/// aig.add_output(f);
/// assert_eq!(aig.eval(&[false, true]), vec![true]);
/// assert_eq!(aig.num_ands(), 1); // OR = complemented AND of complements
/// ```
#[derive(Clone)]
pub struct Aig {
    num_inputs: usize,
    pub(crate) nodes: Vec<Node>,
    outputs: Vec<Lit>,
    strash: FxHashMap<(Lit, Lit), u32>,
}

impl Aig {
    /// Creates an AIG with `num_inputs` primary inputs and no outputs.
    pub fn new(num_inputs: usize) -> Self {
        let sentinel = Node {
            f0: Lit::FALSE,
            f1: Lit::FALSE,
        };
        Aig {
            num_inputs,
            nodes: vec![sentinel; num_inputs + 1],
            outputs: Vec::new(),
            strash: FxHashMap::default(),
        }
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of AND nodes (the contest's size metric).
    #[inline]
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.num_inputs
    }

    /// Total node count including the constant and the inputs.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The literal of primary input `i` (uncomplemented).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs()`.
    #[inline]
    pub fn input(&self, i: usize) -> Lit {
        assert!(i < self.num_inputs, "input index {i} out of range");
        Lit::new((i + 1) as u32, false)
    }

    /// All primary-input literals in order.
    pub fn inputs(&self) -> Vec<Lit> {
        (0..self.num_inputs).map(|i| self.input(i)).collect()
    }

    /// Whether node `n` is a primary input.
    #[inline]
    pub fn is_input(&self, n: u32) -> bool {
        n >= 1 && (n as usize) <= self.num_inputs
    }

    /// Whether node `n` is an AND gate.
    #[inline]
    pub fn is_and(&self, n: u32) -> bool {
        (n as usize) > self.num_inputs && (n as usize) < self.nodes.len()
    }

    /// The fanins of AND node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an AND node.
    #[inline]
    pub fn fanins(&self, n: u32) -> (Lit, Lit) {
        assert!(self.is_and(n), "node {n} is not an AND");
        let node = &self.nodes[n as usize];
        (node.f0, node.f1)
    }

    /// AND of two literals, with constant folding, trivial-case rewriting and
    /// structural hashing (an existing identical node is reused).
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        // Constant folding and unit rules.
        if a == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if let Some(&n) = self.strash.get(&(a, b)) {
            return Lit::new(n, false);
        }
        let n = self.nodes.len() as u32;
        self.nodes.push(Node { f0: a, f1: b });
        self.strash.insert((a, b), n);
        Lit::new(n, false)
    }

    /// Non-mutating probe of [`Aig::and`]: returns the literal the AND of
    /// `a` and `b` *would* resolve to — via constant folding, the unit rules
    /// or a structural-hash hit — without creating any node. `None` means a
    /// call to [`Aig::and`] would allocate a fresh node. Used by the
    /// rewriting pass to price candidate structures against logic the graph
    /// already contains.
    pub fn lookup_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if a == Lit::FALSE || a == !b {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if a == b {
            return Some(a);
        }
        self.strash.get(&(a, b)).map(|&n| Lit::new(n, false))
    }

    /// OR of two literals (De Morgan on [`Aig::and`]).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR of two literals (three AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n0 = self.and(a, !b);
        let n1 = self.and(!a, b);
        self.or(n0, n1)
    }

    /// XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// If-then-else: `sel ? t : e` (three AND nodes).
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// AND over a slice of literals, combined as a balanced tree.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::TRUE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let (left, right) = lits.split_at(mid);
                let l = self.and_many(left);
                let r = self.and_many(right);
                self.and(l, r)
            }
        }
    }

    /// OR over a slice of literals, combined as a balanced tree.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::FALSE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let (left, right) = lits.split_at(mid);
                let l = self.or_many(left);
                let r = self.or_many(right);
                self.or(l, r)
            }
        }
    }

    /// XOR over a slice of literals, combined as a balanced tree.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        match lits {
            [] => Lit::FALSE,
            [l] => *l,
            _ => {
                let mid = lits.len() / 2;
                let (left, right) = lits.split_at(mid);
                let l = self.xor_many(left);
                let r = self.xor_many(right);
                self.xor(l, r)
            }
        }
    }

    /// Registers a primary output and returns its index.
    pub fn add_output(&mut self, lit: Lit) -> usize {
        self.outputs.push(lit);
        self.outputs.len() - 1
    }

    /// The primary-output literals.
    #[inline]
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Removes all outputs (logic stays; call [`Aig::cleanup`] to drop it).
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// Evaluates all outputs on one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input arity mismatch");
        let mut values = vec![false; self.nodes.len()];
        for (i, &v) in inputs.iter().enumerate() {
            values[i + 1] = v;
        }
        for n in (self.num_inputs + 1)..self.nodes.len() {
            let Node { f0, f1 } = self.nodes[n];
            let v0 = values[f0.node() as usize] ^ f0.is_complemented();
            let v1 = values[f1.node() as usize] ^ f1.is_complemented();
            values[n] = v0 && v1;
        }
        self.outputs
            .iter()
            .map(|o| values[o.node() as usize] ^ o.is_complemented())
            .collect()
    }

    /// The level (depth in AND gates) of every node; constants and inputs are
    /// level 0, an AND is one more than its deepest fanin.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for n in (self.num_inputs + 1)..self.nodes.len() {
            let Node { f0, f1 } = self.nodes[n];
            level[n] = 1 + level[f0.node() as usize].max(level[f1.node() as usize]);
        }
        level
    }

    /// The circuit depth: the maximum level over all outputs.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.node() as usize])
            .max()
            .unwrap_or(0)
    }

    /// Compacts the graph, keeping only logic reachable from the outputs.
    /// Input count and output order are preserved; structural hashing is
    /// rebuilt. Returns the number of AND nodes removed.
    pub fn cleanup(&mut self) -> usize {
        let before = self.num_ands();
        let mut reachable = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|o| o.node()).collect();
        while let Some(n) = stack.pop() {
            if reachable[n as usize] {
                continue;
            }
            reachable[n as usize] = true;
            if self.is_and(n) {
                let Node { f0, f1 } = self.nodes[n as usize];
                stack.push(f0.node());
                stack.push(f1.node());
            }
        }
        let mut fresh = Aig::new(self.num_inputs);
        let mut map = vec![Lit::FALSE; self.nodes.len()];
        for (i, slot) in map.iter_mut().enumerate().take(self.num_inputs + 1) {
            *slot = Lit::new(i as u32, false);
        }
        for n in (self.num_inputs + 1)..self.nodes.len() {
            if !reachable[n] {
                continue;
            }
            let Node { f0, f1 } = self.nodes[n];
            let a = map[f0.node() as usize].complement_if(f0.is_complemented());
            let b = map[f1.node() as usize].complement_if(f1.is_complemented());
            map[n] = fresh.and(a, b);
        }
        for o in &self.outputs {
            let l = map[o.node() as usize].complement_if(o.is_complemented());
            fresh.outputs.push(l);
        }
        *self = fresh;
        before - self.num_ands()
    }

    /// Copies another AIG's logic into this one, mapping the other graph's
    /// input `i` to `input_map[i]`. Returns the other graph's output literals
    /// re-expressed in this graph.
    ///
    /// # Panics
    ///
    /// Panics if `input_map.len() != other.num_inputs()`.
    pub fn append(&mut self, other: &Aig, input_map: &[Lit]) -> Vec<Lit> {
        assert_eq!(
            input_map.len(),
            other.num_inputs,
            "input map arity mismatch"
        );
        let mut map = vec![Lit::FALSE; other.nodes.len()];
        for (i, &l) in input_map.iter().enumerate() {
            map[i + 1] = l;
        }
        for n in (other.num_inputs + 1)..other.nodes.len() {
            let Node { f0, f1 } = other.nodes[n];
            let a = map[f0.node() as usize].complement_if(f0.is_complemented());
            let b = map[f1.node() as usize].complement_if(f1.is_complemented());
            map[n] = self.and(a, b);
        }
        other
            .outputs
            .iter()
            .map(|o| map[o.node() as usize].complement_if(o.is_complemented()))
            .collect()
    }

    /// Rebuilds this graph substituting some nodes by constants:
    /// `substitutions[n] = Some(v)` forces node `n` to the constant `v`.
    /// Constant folding then propagates through the cone. Outputs and input
    /// count are preserved.
    pub fn substitute_constants(&self, substitutions: &HashMap<u32, bool>) -> Aig {
        let mut fresh = Aig::new(self.num_inputs);
        let mut map = vec![Lit::FALSE; self.nodes.len()];
        for (i, slot) in map.iter_mut().enumerate().take(self.num_inputs + 1) {
            *slot = Lit::new(i as u32, false);
        }
        for n in (self.num_inputs + 1)..self.nodes.len() {
            if let Some(&v) = substitutions.get(&(n as u32)) {
                map[n] = Lit::constant(v);
                continue;
            }
            let Node { f0, f1 } = self.nodes[n];
            let a = map[f0.node() as usize].complement_if(f0.is_complemented());
            let b = map[f1.node() as usize].complement_if(f1.is_complemented());
            map[n] = fresh.and(a, b);
        }
        for o in &self.outputs {
            let l = map[o.node() as usize].complement_if(o.is_complemented());
            fresh.outputs.push(l);
        }
        fresh.cleanup();
        fresh
    }

    /// Extracts the logic cone of `outputs` into a fresh AIG with the same
    /// input count, in a **canonical** node order: the result depends only
    /// on the logical structure of the cone, not on the order in which the
    /// source graph happened to create its nodes. Two structurally
    /// isomorphic cones — e.g. the same candidate emitted into a fresh
    /// builder versus into a shared strashed graph where half its nodes
    /// were deduplicated against other candidates — extract to *identical*
    /// graphs (equal [`Aig::structural_fingerprint`]).
    ///
    /// Canonicalization works bottom-up: every cone node gets a 128-bit
    /// structural key (inputs keyed by index, ANDs by an order-insensitive
    /// mix of their fanin keys), and the rebuild DFS visits the
    /// smaller-keyed fanin first. Under structural hashing two distinct
    /// nodes never share a key (equal keys would mean equal structure,
    /// which strash collapses), so the visit order is well-defined.
    ///
    /// This is the entry point of the batched compile path: candidates
    /// built into one shared graph are compiled via their extracted cone,
    /// and canonicalization guarantees the result is bit-identical to
    /// compiling the candidate from scratch.
    pub fn extract_cone(&self, outputs: &[Lit]) -> Aig {
        // Pass 1: collect the cone (iterative DFS, any order).
        let mut in_cone = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = Vec::new();
        for o in outputs {
            stack.push(o.node());
        }
        while let Some(n) = stack.pop() {
            if in_cone[n as usize] {
                continue;
            }
            in_cone[n as usize] = true;
            if self.is_and(n) {
                let Node { f0, f1 } = self.nodes[n as usize];
                stack.push(f0.node());
                stack.push(f1.node());
            }
        }
        // Pass 2: canonical keys, bottom-up (index order is topological).
        let mix = |a: u128, b: u128| -> u128 {
            let lo = crate::fxhash::fnv1a_mix(
                crate::fxhash::fnv1a_mix(crate::fxhash::FNV_OFFSET, a as u64),
                b as u64,
            );
            let hi = ((a >> 64) as u64 ^ (b >> 64) as u64 ^ lo.rotate_left(31))
                .wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
            (u128::from(hi) << 64) | u128::from(lo)
        };
        let mut key = vec![0u128; self.nodes.len()];
        for n in 0..self.nodes.len() {
            if !in_cone[n] {
                continue;
            }
            key[n] = if n == 0 {
                1
            } else if !self.is_and(n as u32) {
                mix(2, n as u128)
            } else {
                let Node { f0, f1 } = self.nodes[n];
                let k0 = (key[f0.node() as usize] << 1) | u128::from(f0.is_complemented());
                let k1 = (key[f1.node() as usize] << 1) | u128::from(f1.is_complemented());
                let (lo, hi) = if k0 <= k1 { (k0, k1) } else { (k1, k0) };
                mix(lo, hi)
            };
        }
        // Pass 3: canonical-order rebuild (post-order DFS, smaller key
        // first), re-strashing through `and` so folding stays normalized.
        let mut fresh = Aig::new(self.num_inputs);
        let mut map = vec![Lit::FALSE; self.nodes.len()];
        let mut mapped = vec![false; self.nodes.len()];
        for (i, slot) in map.iter_mut().enumerate().take(self.num_inputs + 1) {
            *slot = Lit::new(i as u32, false);
            mapped[i] = true;
        }
        let mut dfs: Vec<(u32, bool)> = Vec::new();
        for o in outputs {
            dfs.push((o.node(), false));
            while let Some((n, expanded)) = dfs.pop() {
                if mapped[n as usize] {
                    continue;
                }
                let Node { f0, f1 } = self.nodes[n as usize];
                if expanded {
                    let a = map[f0.node() as usize].complement_if(f0.is_complemented());
                    let b = map[f1.node() as usize].complement_if(f1.is_complemented());
                    map[n as usize] = fresh.and(a, b);
                    mapped[n as usize] = true;
                } else {
                    dfs.push((n, true));
                    let ka = key[f0.node() as usize];
                    let kb = key[f1.node() as usize];
                    let (first, second) = if ka <= kb { (f0, f1) } else { (f1, f0) };
                    // Pushed in reverse so `first` pops (and maps) first.
                    dfs.push((second.node(), false));
                    dfs.push((first.node(), false));
                }
            }
            let l = map[o.node() as usize].complement_if(o.is_complemented());
            fresh.outputs.push(l);
        }
        fresh
    }

    /// A constant-output AIG (useful as a fallback model).
    pub fn constant(num_inputs: usize, value: bool) -> Aig {
        let mut aig = Aig::new(num_inputs);
        aig.add_output(Lit::constant(value));
        aig
    }

    /// Debug-mode structural verifier: checks every representation
    /// invariant the optimization passes rely on and returns the first
    /// violation as a message. `Ok` on a well-formed graph.
    ///
    /// Checked invariants:
    ///
    /// * **Node layout** — node 0 is the constant, nodes `1..=num_inputs`
    ///   are inputs, all carry the `(FALSE, FALSE)` sentinel;
    /// * **Acyclicity** — every AND's fanins point at strictly smaller node
    ///   indices (append-only construction makes index order topological);
    /// * **Folding** — no AND has a constant fanin or two fanins on the same
    ///   node (`x∧x`, `x∧¬x` and constant cases fold in [`Aig::and`]);
    /// * **Canonical child order** — `f0.raw() < f1.raw()`;
    /// * **Strash consistency** — every AND resolves to itself through
    ///   [`Aig::lookup_and`], every strash entry points at a live AND with
    ///   exactly the entry's fanins, and the table records each AND once
    ///   (no dangling entries beyond the recorded nodes);
    /// * **Outputs** — every output literal points inside the node table.
    ///
    /// Runs in `O(nodes + outputs)`. The optimization pipeline calls this
    /// after every pass in debug builds and when `LSML_CHECK=1`
    /// (see [`crate::opt`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        let n_nodes = self.nodes.len();
        if n_nodes < self.num_inputs + 1 {
            return Err(format!(
                "node table holds {n_nodes} nodes, need {} for constant + inputs",
                self.num_inputs + 1
            ));
        }
        let sentinel = Node {
            f0: Lit::FALSE,
            f1: Lit::FALSE,
        };
        for n in 0..=self.num_inputs {
            if self.nodes[n] != sentinel {
                return Err(format!(
                    "non-AND node {n} lost its sentinel fanins: {:?}",
                    self.nodes[n]
                ));
            }
        }
        for n in (self.num_inputs + 1)..n_nodes {
            let Node { f0, f1 } = self.nodes[n];
            for f in [f0, f1] {
                if f.node() as usize >= n {
                    return Err(format!(
                        "AND {n} fanin {f:?} is not topologically earlier (cycle or forward edge)"
                    ));
                }
            }
            if f0.node() == 0 || f1.node() == 0 {
                return Err(format!(
                    "AND {n} has an unfolded constant fanin ({f0:?}, {f1:?})"
                ));
            }
            if f0.node() == f1.node() {
                return Err(format!(
                    "AND {n} has both fanins on node {} (x∧x / x∧¬x must fold)",
                    f0.node()
                ));
            }
            if f0.raw() >= f1.raw() {
                return Err(format!(
                    "AND {n} fanins not in canonical order: {} !< {}",
                    f0.raw(),
                    f1.raw()
                ));
            }
            match self.lookup_and(f0, f1) {
                Some(l) if l == Lit::new(n as u32, false) => {}
                other => {
                    return Err(format!(
                        "strash inconsistency: AND {n} ({f0:?}, {f1:?}) resolves to {other:?}"
                    ));
                }
            }
        }
        if self.strash.len() != self.num_ands() {
            return Err(format!(
                "strash records {} entries for {} AND nodes (dangling or missing entries)",
                self.strash.len(),
                self.num_ands()
            ));
        }
        for (&(a, b), &n) in &self.strash {
            if !self.is_and(n) {
                return Err(format!(
                    "strash entry ({a:?}, {b:?}) -> {n} points at a non-AND node"
                ));
            }
            let node = self.nodes[n as usize];
            if (node.f0, node.f1) != (a, b) {
                return Err(format!(
                    "strash entry ({a:?}, {b:?}) -> {n} mismatches node fanins {node:?}"
                ));
            }
        }
        for (i, o) in self.outputs.iter().enumerate() {
            if o.node() as usize >= n_nodes {
                return Err(format!(
                    "output {i} ({o:?}) points past the node table ({n_nodes} nodes)"
                ));
            }
        }
        Ok(())
    }

    /// A 128-bit structural fingerprint: two independent multiply-xor
    /// streams over the input count, every AND node's fanin literals (in
    /// index order), and the output literals. Graphs with equal
    /// fingerprints are treated as structurally identical by the
    /// optimization-fixpoint and compile caches; at 128 bits, an accidental
    /// collision is beyond reach for any realistic workload, and a cache
    /// collision would only ever swap in a *previously compiled* circuit,
    /// never corrupt a graph.
    pub fn structural_fingerprint(&self) -> u128 {
        // Stream 1 is plain FNV-1a; stream 2 deliberately uses a different
        // rotation and multiplier so the two halves stay independent.
        let mut h1 = crate::fxhash::FNV_OFFSET;
        let mut h2 = 0x9e37_79b9_7f4a_7c15u64; // golden-ratio basis
        let mut feed = |v: u64| {
            h1 = crate::fxhash::fnv1a_mix(h1, v);
            h2 = (h2 ^ v.rotate_left(23)).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        };
        feed(self.num_inputs as u64);
        for n in (self.num_inputs + 1)..self.nodes.len() {
            let Node { f0, f1 } = self.nodes[n];
            feed((u64::from(f0.raw()) << 32) | u64::from(f1.raw()));
        }
        feed(u64::MAX); // separator: nodes vs outputs
        for o in &self.outputs {
            feed(u64::from(o.raw()));
        }
        (u128::from(h1) << 64) | u128::from(h2)
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig({} inputs, {} ands, {} outputs, depth {})",
            self.num_inputs,
            self.num_ands(),
            self.outputs.len(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_rules_fold() {
        let mut g = Aig::new(2);
        let a = g.input(0);
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn strash_reuses_nodes() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
        let z = g.and(!a, b);
        assert_ne!(x, z);
        assert_eq!(g.num_ands(), 2);
    }

    #[test]
    fn eval_gates() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let and = g.and(a, b);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        g.add_output(and);
        g.add_output(or);
        g.add_output(xor);
        for (ia, ib) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = g.eval(&[ia, ib]);
            assert_eq!(v, vec![ia && ib, ia || ib, ia ^ ib]);
        }
    }

    #[test]
    fn mux_selects() {
        let mut g = Aig::new(3);
        let (s, t, e) = (g.input(0), g.input(1), g.input(2));
        let m = g.mux(s, t, e);
        g.add_output(m);
        assert_eq!(g.eval(&[true, true, false]), vec![true]);
        assert_eq!(g.eval(&[false, true, false]), vec![false]);
        assert_eq!(g.eval(&[false, false, true]), vec![true]);
    }

    #[test]
    fn many_helpers() {
        let mut g = Aig::new(4);
        let ins = g.inputs();
        let all = g.and_many(&ins);
        let any = g.or_many(&ins);
        let parity = g.xor_many(&ins);
        g.add_output(all);
        g.add_output(any);
        g.add_output(parity);
        assert_eq!(g.eval(&[true, true, true, true]), vec![true, true, false]);
        assert_eq!(
            g.eval(&[false, true, false, false]),
            vec![false, true, true]
        );
        assert_eq!(
            g.eval(&[false, false, false, false]),
            vec![false, false, false]
        );
    }

    #[test]
    fn empty_many_are_constants() {
        let mut g = Aig::new(1);
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
        assert_eq!(g.xor_many(&[]), Lit::FALSE);
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.input(0), g.input(1), g.input(2));
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.add_output(y);
        assert_eq!(g.depth(), 2);
        let levels = g.levels();
        assert_eq!(levels[x.node() as usize], 1);
        assert_eq!(levels[y.node() as usize], 2);
    }

    #[test]
    fn cleanup_drops_dangling() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let _dead = g.xor(a, b); // 3 ANDs, never used
        let live = g.and(a, b);
        g.add_output(live);
        assert_eq!(g.num_ands(), 4);
        let removed = g.cleanup();
        assert_eq!(removed, 3);
        assert_eq!(g.num_ands(), 1);
        assert_eq!(g.eval(&[true, true]), vec![true]);
        assert_eq!(g.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn cleanup_preserves_constant_outputs() {
        let mut g = Aig::new(2);
        g.add_output(Lit::TRUE);
        g.cleanup();
        assert_eq!(g.eval(&[false, false]), vec![true]);
    }

    #[test]
    fn append_composes_graphs() {
        let mut inner = Aig::new(2);
        let (a, b) = (inner.input(0), inner.input(1));
        let x = inner.xor(a, b);
        inner.add_output(x);

        let mut outer = Aig::new(3);
        let (p, q, r) = (outer.input(0), outer.input(1), outer.input(2));
        let pq = outer.and(p, q);
        let outs = outer.append(&inner, &[pq, r]);
        outer.add_output(outs[0]);
        // f = (p AND q) XOR r
        assert_eq!(outer.eval(&[true, true, false]), vec![true]);
        assert_eq!(outer.eval(&[true, true, true]), vec![false]);
        assert_eq!(outer.eval(&[false, true, true]), vec![true]);
    }

    #[test]
    fn substitute_constants_rewires() {
        let mut g = Aig::new(2);
        let (a, b) = (g.input(0), g.input(1));
        let x = g.xor(a, b);
        g.add_output(x);
        // Force the XOR's top node to constant true: output becomes constant.
        let n = x.node();
        let mut subs = HashMap::new();
        subs.insert(n, !x.is_complemented());
        let forced = g.substitute_constants(&subs);
        assert_eq!(forced.eval(&[false, false]), vec![true]);
        assert_eq!(forced.eval(&[true, false]), vec![true]);
        assert_eq!(forced.num_ands(), 0);
    }

    #[test]
    fn structural_fingerprint_tracks_structure() {
        let build = |swap: bool| {
            let mut g = Aig::new(2);
            let (a, b) = (g.input(0), g.input(1));
            let f = if swap { g.or(a, b) } else { g.and(a, b) };
            g.add_output(f);
            g
        };
        assert_eq!(
            build(false).structural_fingerprint(),
            build(false).structural_fingerprint()
        );
        assert_ne!(
            build(false).structural_fingerprint(),
            build(true).structural_fingerprint()
        );
        // Dangling logic participates until cleaned up.
        let mut g = build(false);
        let fp = g.structural_fingerprint();
        let (a, b) = (g.input(0), g.input(1));
        let _dead = g.xor(a, b);
        assert_ne!(g.structural_fingerprint(), fp);
        g.cleanup();
        assert_eq!(g.structural_fingerprint(), fp);
    }

    #[test]
    fn extract_cone_keeps_semantics_and_drops_dead_logic() {
        let mut g = Aig::new(3);
        let (a, b, c) = (g.input(0), g.input(1), g.input(2));
        let _dead = g.xor(b, c);
        let x = g.and(a, b);
        let f = g.or(x, c);
        g.add_output(f);
        let cone = g.extract_cone(&[f]);
        assert_eq!(cone.num_inputs(), 3);
        assert_eq!(cone.num_ands(), 2);
        for m in 0..8u32 {
            let bits = [m & 1 != 0, m & 2 != 0, m & 4 != 0];
            assert_eq!(cone.eval(&bits), g.eval(&bits));
        }
    }

    #[test]
    fn extract_cone_is_creation_order_canonical() {
        // The same candidate emitted standalone vs into a shared graph
        // (where strash remaps its nodes to arbitrary indices) must extract
        // to the identical graph.
        let build_candidate = |g: &mut Aig| {
            let (a, b, c) = (g.input(0), g.input(1), g.input(2));
            let x = g.xor(a, b);
            let y = g.and(x, c);
            g.or(y, !a)
        };
        let mut standalone = Aig::new(3);
        let f1 = build_candidate(&mut standalone);

        let mut shared = Aig::new(3);
        // Pre-populate with overlapping logic in a different order so the
        // candidate's nodes land at different indices / orderings.
        let (a, b, c) = (shared.input(0), shared.input(1), shared.input(2));
        let pre = shared.and(b, c);
        let _pre2 = shared.xor(a, pre);
        let f2 = build_candidate(&mut shared);

        let e1 = standalone.extract_cone(&[f1]);
        let e2 = shared.extract_cone(&[f2]);
        assert_eq!(e1.structural_fingerprint(), e2.structural_fingerprint());
        assert_eq!(e1.num_ands(), e2.num_ands());
        // And extraction is idempotent.
        let e3 = e1.extract_cone(&[e1.outputs()[0]]);
        assert_eq!(e1.structural_fingerprint(), e3.structural_fingerprint());
    }

    #[test]
    fn extract_cone_handles_constant_and_input_outputs() {
        let g = Aig::new(2);
        let a = g.input(0);
        let cone = g.extract_cone(&[Lit::TRUE, !a]);
        assert_eq!(cone.num_ands(), 0);
        assert_eq!(cone.eval(&[true, false]), vec![true, false]);
    }

    #[test]
    fn constant_aig() {
        let g = Aig::constant(3, true);
        assert_eq!(g.eval(&[false, true, false]), vec![true]);
        assert_eq!(g.num_ands(), 0);
    }
}
