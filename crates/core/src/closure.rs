//! The one closure over [`compute_state`]: every state a grammar's
//! fixed-cost rules reach, enumerated the way burg builds its offline
//! tables. [`OfflineAutomaton::build`](crate::OfflineAutomaton::build) is
//! this closure run under its state budget and loaded into `dense.rs`'s
//! tables; the grammar verifier
//! ([`verify`](crate::verify)) runs it under a fixed cap and reads its
//! findings off the output.
//!
//! Leaf operators seed it in `ops_used` order; states are then walked in
//! interning order and projected once per operand class. A projection its
//! class has not seen is a new *representer* and enumerates transitions:
//! at position 0 with the position-1 representers that existed before
//! this state, at position 1 with every position-0 representer. A dead
//! projection gets an id, so the ids are burg's, but is never enumerated:
//! every combination with it computes a dead state.

use odburg_grammar::{Cost, NormalGrammar};
use odburg_ir::Op;

use crate::compute::{compute_state, fixed_only};
use crate::counters::WorkCounters;
use crate::fxhash::FxHashMap;
use crate::state::{StateData, StateId, StateSet};

/// An operator applied to operand representers (`0` past its arity).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Combo {
    pub op: Op,
    pub reps: [u32; 2],
}

/// The smallest tree known to reach a state: operator, child states
/// (filler past the arity) and node count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Origin {
    pub op: Op,
    pub kids: [StateId; 2],
    pub size: u32,
}

/// What [`close`] found.
#[derive(Debug, Default)]
pub(crate) struct Closure {
    pub states: StateSet,
    /// `origins[state]`.
    pub origins: Vec<Origin>,
    /// `reps[class][state]`: the representer of the state's projection
    /// onto the operand class (empty for the empty class).
    pub reps: Vec<Vec<u32>>,
    /// `exemplars[class][rep]`: the representer's state with the smallest
    /// origin.
    pub exemplars: Vec<Vec<StateId>>,
    /// Every combination with a live result, and that result, in the
    /// order the closure found them (each combination once).
    pub log: Vec<(Combo, StateId)>,
    /// Combinations whose result is dead: no rule covers them.
    pub uncovered: Vec<Combo>,
    /// Combinations whose result spreads past the delta cap, with it.
    pub over_cap: Vec<(Combo, StateData)>,
    /// `true` if a new state would have exceeded the state cap.
    pub truncated: bool,
    pub counters: WorkCounters,
}

impl Closure {
    /// The tree `combo` makes over the exemplars of its representers.
    pub fn tree(&self, grammar: &NormalGrammar, combo: Combo) -> Origin {
        let mut tree = Origin {
            op: combo.op,
            kids: [StateId(0); 2],
            size: 1,
        };
        for (pos, kid) in tree.kids.iter_mut().enumerate().take(combo.op.arity()) {
            let class = grammar.operand_class(combo.op, pos) as usize;
            *kid = self.exemplars[class][combo.reps[pos] as usize];
            tree.size = tree.size.saturating_add(self.origins[kid.0 as usize].size);
        }
        tree
    }

    /// Computes and records the result of `combo` over the representer
    /// projections `kids`; `false` once the state cap stops the closure.
    fn apply(
        &mut self,
        grammar: &NormalGrammar,
        combo: Combo,
        kids: &[&StateData],
        max_states: usize,
        max_delta: Cost,
    ) -> bool {
        let state = compute_state(grammar, combo.op, kids, fixed_only, &mut self.counters);
        if state.is_dead() {
            self.uncovered.push(combo);
            return true;
        }
        if state.max_delta() > max_delta {
            self.over_cap.push((combo, state));
            return true;
        }
        let origin = self.tree(grammar, combo);
        let (id, new) = self.states.intern(state);
        if new {
            self.counters.states_built += 1;
            self.origins.push(origin);
            self.truncated = self.states.len() > max_states;
        } else if origin.size < self.origins[id.0 as usize].size {
            self.origins[id.0 as usize] = origin;
        }
        self.log.push((combo, id));
        !self.truncated
    }
}

/// Runs the closure over `grammar` with every dynamic-cost rule
/// inapplicable. It stops when a new state would make more than
/// `max_states`, and records results spread past `max_delta` instead of
/// interning them.
pub(crate) fn close(grammar: &NormalGrammar, max_states: usize, max_delta: Cost) -> Closure {
    let classes = grammar.operand_classes();
    let mut c = Closure {
        reps: vec![Vec::new(); classes.len()],
        exemplars: vec![Vec::new(); classes.len()],
        ..Closure::default()
    };
    for &op in grammar.ops_used() {
        let leaf = Combo { op, reps: [0; 2] };
        if op.arity() == 0 && !c.apply(grammar, leaf, &[], max_states, max_delta) {
            return c;
        }
    }
    // Per class: each representer's projection and the index over them,
    // a reusable projection buffer, the count before the current state, and
    // whether the current state added a live representer.
    let mut projections: Vec<Vec<StateData>> = vec![Vec::new(); classes.len()];
    let mut index: Vec<FxHashMap<Box<[Cost]>, u32>> = vec![FxHashMap::default(); classes.len()];
    let mut buffers: Vec<StateData> = classes
        .iter()
        .map(|nts| StateData::empty(nts.len()))
        .collect();
    let mut before = vec![0u32; classes.len()];
    let mut fresh = vec![false; classes.len()];
    let mut next = 0;
    while next < c.states.len() {
        let sid = StateId(next as u32);
        next += 1;
        let size = c.origins[sid.0 as usize].size;
        for (class, nts) in classes.iter().enumerate() {
            before[class] = projections[class].len() as u32;
            fresh[class] = false;
            if nts.is_empty() {
                continue;
            }
            let projection = &mut buffers[class];
            c.states.get(sid).project_into(nts, projection);
            let rep = if let Some(&rep) = index[class].get(projection.raw_parts().0) {
                let exemplar = &mut c.exemplars[class][rep as usize];
                if size < c.origins[exemplar.0 as usize].size {
                    *exemplar = sid;
                }
                rep
            } else {
                fresh[class] = !projection.is_dead();
                index[class].insert(projection.raw_parts().0.into(), before[class]);
                projections[class].push(projection.clone());
                c.exemplars[class].push(sid);
                before[class]
            };
            c.reps[class].push(rep);
        }
        if !fresh.contains(&true) {
            continue;
        }
        for &op in grammar.ops_used() {
            let arity = op.arity();
            let class = |pos| grammar.operand_class(op, pos) as usize;
            for pos in (0..arity).filter(|&pos| fresh[class(pos)]) {
                let rep = c.reps[class(pos)][sid.0 as usize];
                let combos: Vec<[u32; 2]> = match (arity, pos) {
                    (1, _) => vec![[rep, 0]],
                    (_, 0) => (0..before[class(1)]).map(|r1| [rep, r1]).collect(),
                    _ => (0..projections[class(0)].len() as u32)
                        .map(|r0| [r0, rep])
                        .collect(),
                };
                for reps in combos {
                    let k0 = &projections[class(0)][reps[0] as usize];
                    let k1 = if arity == 2 {
                        &projections[class(1)][reps[1] as usize]
                    } else {
                        k0
                    };
                    let kids = &[k0, k1][..arity];
                    if kids.iter().any(|k| k.is_dead()) {
                        continue;
                    }
                    if !c.apply(grammar, Combo { op, reps }, kids, max_states, max_delta) {
                        return c;
                    }
                }
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use odburg_grammar::parse_grammar;

    #[test]
    fn representers_are_shared_per_operand_class() {
        // AddI8's two positions and LoadI8's operand all want `reg`; the
        // classes share one representer array, and every state of the
        // closure has an entry in each non-empty class.
        let g = parse_grammar(
            "%start stmt\nreg: ConstI8 (1)\nreg: LoadI8(reg) (1)\nreg: AddI8(reg, reg) (1)\n\
             stmt: StoreI8(reg, reg) (1)\n",
        )
        .unwrap()
        .normalize();
        let add: Op = "AddI8".parse().unwrap();
        let load: Op = "LoadI8".parse().unwrap();
        assert_eq!(g.operand_class(add, 0), g.operand_class(add, 1));
        assert_eq!(g.operand_class(add, 0), g.operand_class(load, 0));
        let c = close(&g, 64, Cost::INFINITE);
        assert!(!c.truncated && c.uncovered.is_empty() && c.over_cap.is_empty());
        for (class, nts) in g.operand_classes().iter().enumerate() {
            let expected = if nts.is_empty() { 0 } else { c.states.len() };
            assert_eq!(c.reps[class].len(), expected);
        }
        // Origins only shrink, so an origin outweighs its kids' trees.
        for o in &c.origins {
            let kids: u32 = o.kids[..o.op.arity()]
                .iter()
                .map(|k| c.origins[k.0 as usize].size)
                .sum();
            assert!(o.size > kids, "{o:?}");
        }
    }

    #[test]
    fn caps_stop_or_divert_the_closure() {
        // a and b compete at Store with diverging Load costs: with a cap
        // of 4 the spread escapes, and a state cap of 2 stops the walk.
        let g = parse_grammar(
            "%start s\na: ConstI8 (0)\na: LoadI8(a) (1)\nb: ConstI8 (0)\nb: LoadI8(b) (2)\n\
             s: StoreI8(a, b) (1)\ns: StoreI8(b, a) (1)\n",
        )
        .unwrap()
        .normalize();
        let capped = close(&g, 64, Cost::finite(4));
        assert!(!capped.truncated);
        assert!(!capped.over_cap.is_empty());
        assert!(capped
            .over_cap
            .iter()
            .all(|(_, s)| s.max_delta() > Cost::finite(4)));
        let stopped = close(&g, 2, Cost::INFINITE);
        assert!(stopped.truncated);
        assert_eq!(stopped.states.len(), 3, "the state past the cap stops it");
    }
}
