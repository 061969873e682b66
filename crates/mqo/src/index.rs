//! The predicate index: N member predicates, one scan per chunk.
//!
//! A share group's members are near-identical predicates differing in
//! constants (`src = '10.0.0.1'`, `src = '10.0.0.2'`, …).  Evaluating them
//! independently costs N expression walks per row; the [`PredicateIndex`]
//! instead takes each member predicate as its conjunction of
//! `column op constant` atoms ([`Expr::atoms`]), groups the atoms **by
//! column**, and scans each referenced column once per chunk with a
//! type-specialised kernel:
//!
//! * equality atoms on a column form a hash kernel (`i64`- and
//!   `&str`-keyed), so a scan row finds *all* members whose constant it
//!   equals with one lookup — the per-row cost is O(1) in the member count;
//! * ordering atoms (`<`, `<=`, `>`, `>=`, `!=`) each scan the column with
//!   an inner loop specialised to the constant's type.
//!
//! A predicate with no atom form is not a member:
//! [`normalize`](crate::normalize) refuses its plan, which then runs
//! unshared, and [`PredicateIndex::insert`] refuses it.
//!
//! Every atom's outcome lands in word-packed [`SelMask`]s combined with
//! bitwise ops: ANDing a member's atoms, ORing members into the union mask
//! the shared window store absorbs.  The masks are exactly what per-member
//! [`CompiledPredicate`](pier_core::CompiledPredicate) evaluation would
//! produce row by row — including best-effort discard on missing columns
//! and type mismatches — which the equivalence and property tests pin.
//!
//! The kernels are compiled once per schema and then edited as members
//! come and go: an insert appends its atoms (its equality atoms taking the
//! entries removed members retired, if any), a remove retires its equality
//! entries and renumbers the slot `swap_remove` moved.  A membership change
//! therefore costs its own atoms, not a rebuild for every member; the index
//! rebuilds only when retired entries outnumber live ones.

use crate::mask::SelMask;
use pier_core::tuple::{ColumnChunk, Schema};
use pier_core::{Atom, CmpOp, Column, Expr, Value, ValueRef};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// 2^53: strictly below this magnitude, `f64` represents every integer
/// exactly, so `f as i64` round-trips and hashing the cast agrees with
/// [`Value::compare`]'s widening comparison.  At and beyond it, distinct
/// `i64` constants round to the *same* `f64` (2^53 + 1 rounds onto 2^53),
/// so integral float row values fall back to comparing against each
/// integer constant the way per-row evaluation would.
const F64_EXACT_INT_MAX: f64 = 9_007_199_254_740_992.0;

#[derive(Debug)]
struct IndexedMember {
    id: u64,
    /// The member predicate's conjunction.
    atoms: Vec<Atom>,
}

/// One column's compiled kernels.  Equality atoms index into the global
/// per-atom scratch-mask table (`entries` lists this kernel's share of it);
/// ordering atoms carry their member slot directly and clear failing rows
/// in place.
#[derive(Debug, Default)]
struct ColumnKernel {
    col: usize,
    /// Integer constant → equality-entry ids.
    int_eq: HashMap<i64, Vec<u32>>,
    /// String constant → equality-entry ids.
    str_eq: HashMap<String, Vec<u32>>,
    /// Float equality constants `(entry, constant)`; compared per row
    /// (they can also equal integer row values).
    float_eq: Vec<(u32, Value)>,
    /// Bool/bytes/null equality constants `(entry, constant)`.
    misc_eq: Vec<(u32, Value)>,
    /// Every equality entry of this kernel (for the AND step).
    entries: Vec<u32>,
    /// Ordering / inequality atoms: `(op, constant, member slot)`.
    cmps: Vec<(CmpOp, Value, u32)>,
}

/// Apply every equality atom of `kernel` to row `r` holding `v` — the
/// layout-independent per-value dispatch, exactly what per-row predicate
/// evaluation would conclude for the row.  The typed arms of the chunk scan
/// are shortcuts for the `Int`/`Str` branches below; null rows and mixed
/// layouts funnel through here.
fn eq_scan_row(kernel: &ColumnKernel, scratch: &mut [SelMask], r: usize, v: ValueRef<'_>) {
    match v {
        ValueRef::Int(x) => {
            if let Some(entries) = kernel.int_eq.get(&x) {
                for &e in entries {
                    scratch[e as usize].set(r);
                }
            }
            for (e, c) in &kernel.float_eq {
                if v.compare_value(c) == Some(std::cmp::Ordering::Equal) {
                    scratch[*e as usize].set(r);
                }
            }
        }
        ValueRef::Float(f) => {
            if f.fract() == 0.0 {
                // Strictly below 2^53: every i64 the widening comparison
                // could equate casts back exactly, so the hash lookup is
                // complete.  At and beyond it, neighbours like 2^53+1 round
                // onto the same f64.
                if f.abs() < F64_EXACT_INT_MAX {
                    if let Some(entries) = kernel.int_eq.get(&(f as i64)) {
                        for &e in entries {
                            scratch[e as usize].set(r);
                        }
                    }
                } else {
                    // Beyond the exactly-representable range the cast can
                    // miss constants that Value::compare's widening would
                    // equate; compare each (rare: only huge integral float
                    // rows pay this).
                    for (k, entries) in &kernel.int_eq {
                        if v.compare_value(&Value::Int(*k)) == Some(std::cmp::Ordering::Equal) {
                            for &e in entries {
                                scratch[e as usize].set(r);
                            }
                        }
                    }
                }
            }
            for (e, c) in &kernel.float_eq {
                if v.compare_value(c) == Some(std::cmp::Ordering::Equal) {
                    scratch[*e as usize].set(r);
                }
            }
        }
        ValueRef::Str(s) => {
            if let Some(entries) = kernel.str_eq.get(s) {
                for &e in entries {
                    scratch[e as usize].set(r);
                }
            }
        }
        other => {
            for (e, c) in &kernel.misc_eq {
                if other.compare_value(c) == Some(std::cmp::Ordering::Equal) {
                    scratch[*e as usize].set(r);
                }
            }
        }
    }
}

/// The member slot of an equality entry whose member was removed.
const RETIRED: u32 = u32::MAX;

/// Keep only the `live` entries under `key`, and the key only while some
/// remain.
fn prune<K, Q>(map: &mut HashMap<K, Vec<u32>>, key: &Q, live: impl Fn(&u32) -> bool)
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
{
    if let Some(entries) = map.get_mut(key) {
        entries.retain(live);
        if entries.is_empty() {
            map.remove(key);
        }
    }
}

/// The index compiled against one interned schema (single-entry cache,
/// pointer-keyed like every per-schema cache in `pier-core`).  Membership
/// changes edit it in place: a new member's atoms are appended, a removed
/// member's equality entries are retired (their ids wait for the next
/// member's atoms) and its references dropped from every kernel.
#[derive(Debug)]
struct CompiledIndex {
    schema: Arc<Schema>,
    kernels: Vec<ColumnKernel>,
    /// Members with an atom on a column the schema lacks: evaluation would
    /// error on every row, so their mask is all-false (best-effort
    /// discard).
    always_false: Vec<u32>,
    /// Members served by the atom kernels (mask starts all-true).
    atom_slots: Vec<u32>,
    /// Equality entry → member slot ([`RETIRED`] once its member left).
    entry_slot: Vec<u32>,
    /// The retired entries, which the next equality atoms reuse.
    retired: Vec<u32>,
}

impl CompiledIndex {
    /// `members` compiled against `schema`: an empty index, then each
    /// member added in slot order.
    fn build(members: &[IndexedMember], schema: &Arc<Schema>) -> Self {
        let mut compiled = CompiledIndex {
            schema: Arc::clone(schema),
            kernels: Vec::new(),
            always_false: Vec::new(),
            atom_slots: Vec::new(),
            entry_slot: Vec::new(),
            retired: Vec::new(),
        };
        for (slot, member) in members.iter().enumerate() {
            compiled.add(slot as u32, member);
        }
        compiled
    }

    /// Compile `member`, which occupies `slot`, into the kernels.
    fn add(&mut self, slot: u32, member: &IndexedMember) {
        let atoms = &member.atoms;
        let resolved: Option<Vec<usize>> = atoms
            .iter()
            .map(|a| self.schema.position(&a.column))
            .collect();
        let Some(cols) = resolved else {
            self.always_false.push(slot);
            return;
        };
        self.atom_slots.push(slot);
        for (atom, col) in atoms.iter().zip(cols) {
            let at = match self.kernels.iter().position(|k| k.col == col) {
                Some(at) => at,
                None => {
                    self.kernels.push(ColumnKernel {
                        col,
                        ..ColumnKernel::default()
                    });
                    self.kernels.len() - 1
                }
            };
            let kernel = &mut self.kernels[at];
            if atom.op == CmpOp::Eq {
                let entry = match self.retired.pop() {
                    Some(entry) => {
                        self.entry_slot[entry as usize] = slot;
                        entry
                    }
                    None => {
                        self.entry_slot.push(slot);
                        self.entry_slot.len() as u32 - 1
                    }
                };
                kernel.entries.push(entry);
                match &atom.constant {
                    Value::Int(i) => kernel.int_eq.entry(*i).or_default().push(entry),
                    Value::Str(s) => {
                        kernel.str_eq.entry(s.to_string()).or_default().push(entry);
                    }
                    Value::Float(_) => kernel.float_eq.push((entry, atom.constant.clone())),
                    other => kernel.misc_eq.push((entry, other.clone())),
                }
            } else {
                kernel.cmps.push((atom.op, atom.constant.clone(), slot));
            }
        }
    }

    /// `removed`, the member in `slot`, left and `swap_remove` moved the
    /// member from slot `moved` into it (`moved == slot`: the removed
    /// member was the last one).
    fn remove(&mut self, slot: u32, moved: u32, removed: &IndexedMember) {
        let renumber = |s: &mut u32| {
            if *s == moved {
                *s = slot;
            }
        };
        for list in [&mut self.always_false, &mut self.atom_slots] {
            list.retain(|s| *s != slot);
            list.iter_mut().for_each(renumber);
        }
        for (entry, s) in self.entry_slot.iter_mut().enumerate() {
            if *s == slot {
                *s = RETIRED;
                self.retired.push(entry as u32);
            } else {
                renumber(s);
            }
        }
        // No kernel looks a retired entry up or reads its scratch mask.
        let entry_slot = &self.entry_slot;
        let live = |e: &u32| entry_slot[*e as usize] != RETIRED;
        for kernel in &mut self.kernels {
            kernel.cmps.retain(|c| c.2 != slot);
            kernel.cmps.iter_mut().for_each(|c| renumber(&mut c.2));
            kernel.entries.retain(live);
            kernel.float_eq.retain(|(e, _)| live(e));
            kernel.misc_eq.retain(|(e, _)| live(e));
        }
        // The hash kernels hold its entries under its own constants.
        for atom in removed.atoms.iter().filter(|a| a.op == CmpOp::Eq) {
            let Some(col) = self.schema.position(&atom.column) else {
                continue;
            };
            let Some(kernel) = self.kernels.iter_mut().find(|k| k.col == col) else {
                continue;
            };
            match &atom.constant {
                Value::Int(i) => prune(&mut kernel.int_eq, i, live),
                Value::Str(s) => prune(&mut kernel.str_eq, s.as_ref(), live),
                _ => {}
            }
        }
    }

    /// More retired equality entries than live ones: time to rebuild.
    fn mostly_retired(&self) -> bool {
        self.retired.len() > self.entry_slot.len() - self.retired.len()
    }
}

/// The multi-query predicate index: member predicates in, per-member
/// selection masks (plus their union) out, one column scan at a time.
#[derive(Debug, Default)]
pub struct PredicateIndex {
    members: Vec<IndexedMember>,
    by_id: HashMap<u64, usize>,
    compiled: Option<CompiledIndex>,
    /// Per-member masks, parallel to `members` (valid after
    /// [`PredicateIndex::eval_chunk`]).
    masks: Vec<SelMask>,
    /// Per-equality-entry scratch masks, reused across chunks.
    scratch: Vec<SelMask>,
    /// Three-valued scratch for the ordering-atom kernel, reused across
    /// chunks (no per-atom allocation).
    truth_scratch: Vec<bool>,
    err_scratch: Vec<bool>,
    union: SelMask,
}

impl PredicateIndex {
    /// An empty index.
    pub fn new() -> Self {
        PredicateIndex {
            union: SelMask::new(0, false),
            ..Default::default()
        }
    }

    /// Number of member predicates.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no member is registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Register a member predicate.  `false` when the id already exists or
    /// the predicate is not a conjunction of atoms ([`Expr::atoms`]).
    pub fn insert(&mut self, id: u64, predicate: Expr) -> bool {
        if self.by_id.contains_key(&id) {
            return false;
        }
        let Some(atoms) = predicate.atoms() else {
            return false;
        };
        let slot = self.members.len();
        self.by_id.insert(id, slot);
        self.members.push(IndexedMember { id, atoms });
        if let Some(compiled) = self.compiled.as_mut() {
            compiled.add(slot as u32, &self.members[slot]);
        }
        true
    }

    /// Remove a member predicate.  `false` when the id is unknown.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(slot) = self.by_id.remove(&id) else {
            return false;
        };
        let removed = self.members.swap_remove(slot);
        // The old last slot, whose member now sits in `slot` (`slot`
        // itself when the removed member was the last).
        let moved = self.members.len();
        if slot < moved {
            self.by_id.insert(self.members[slot].id, slot);
        }
        if let Some(compiled) = self.compiled.as_mut() {
            compiled.remove(slot as u32, moved as u32, &removed);
            if compiled.mostly_retired() {
                self.compiled = None;
            }
        }
        true
    }

    /// Evaluate every member predicate over `chunk`, column-at-a-time.
    /// Afterwards [`PredicateIndex::member_mask`] holds each member's
    /// selection mask and [`PredicateIndex::union`] their bitwise OR (the
    /// rows at least one member selects).
    pub fn eval_chunk(&mut self, chunk: &ColumnChunk) {
        let rows = chunk.rows();
        let schema = chunk.schema();
        let hit = self
            .compiled
            .as_ref()
            .is_some_and(|c| Arc::ptr_eq(&c.schema, schema));
        if !hit {
            self.compiled = Some(CompiledIndex::build(&self.members, schema));
        }
        while self.masks.len() < self.members.len() {
            self.masks.push(SelMask::new(0, false));
        }
        let compiled = self.compiled.as_ref().expect("compiled above");
        for &slot in &compiled.atom_slots {
            self.masks[slot as usize].reset(rows, true);
        }
        for &slot in &compiled.always_false {
            self.masks[slot as usize].reset(rows, false);
        }
        // Equality scratch masks: one per (member, eq-atom) pair.
        while self.scratch.len() < compiled.entry_slot.len() {
            self.scratch.push(SelMask::new(0, false));
        }
        for entry in 0..compiled.entry_slot.len() {
            self.scratch[entry].reset(rows, false);
        }
        for kernel in &compiled.kernels {
            let column = chunk.col(kernel.col);
            // One scan resolves every equality atom on this column: the row
            // value hashes straight to the matching entries.  The scan is
            // layout-specialised: native-int columns hash straight off the
            // `i64` slice, dictionary columns resolve each distinct string
            // once and broadcast by code, everything else borrows each row
            // ([`Column::value_ref`]) into the shared per-value dispatch.
            if !kernel.entries.is_empty() {
                match column {
                    Column::Int { data, validity } => {
                        for (r, &x) in data.iter().enumerate() {
                            if validity.as_ref().is_some_and(|b| !b.get(r)) {
                                eq_scan_row(kernel, &mut self.scratch, r, ValueRef::Null);
                                continue;
                            }
                            if let Some(entries) = kernel.int_eq.get(&x) {
                                for &e in entries {
                                    self.scratch[e as usize].set(r);
                                }
                            }
                            for (e, c) in &kernel.float_eq {
                                if ValueRef::Int(x).compare_value(c)
                                    == Some(std::cmp::Ordering::Equal)
                                {
                                    self.scratch[*e as usize].set(r);
                                }
                            }
                        }
                    }
                    Column::Dict {
                        codes,
                        dict,
                        validity,
                        ..
                    } => {
                        let per_code: Vec<&[u32]> = dict
                            .iter()
                            .map(|s| kernel.str_eq.get(s.as_ref()).map_or(&[][..], Vec::as_slice))
                            .collect();
                        for (r, &code) in codes.iter().enumerate() {
                            if validity.as_ref().is_some_and(|b| !b.get(r)) {
                                eq_scan_row(kernel, &mut self.scratch, r, ValueRef::Null);
                                continue;
                            }
                            for &e in per_code[code as usize] {
                                self.scratch[e as usize].set(r);
                            }
                        }
                    }
                    Column::Str {
                        arena,
                        offsets,
                        validity,
                    } => {
                        // Validate the arena once and slice rows from it —
                        // `value_ref` would re-run `from_utf8` per row.
                        let arena = std::str::from_utf8(arena).expect("arena holds UTF-8");
                        for r in 0..offsets.len() - 1 {
                            if validity.as_ref().is_some_and(|b| !b.get(r)) {
                                eq_scan_row(kernel, &mut self.scratch, r, ValueRef::Null);
                                continue;
                            }
                            let s = &arena[offsets[r] as usize..offsets[r + 1] as usize];
                            eq_scan_row(kernel, &mut self.scratch, r, ValueRef::Str(s));
                        }
                    }
                    _ => {
                        for r in 0..rows {
                            eq_scan_row(kernel, &mut self.scratch, r, column.value_ref(r));
                        }
                    }
                }
            }
            // Ordering atoms: one specialised scan each, clearing failing
            // rows from the member's mask in place.  The scan delegates to
            // `pier-core`'s `cmp_col_const` kernel — the exact loops
            // single-query `Selection` vectorises with, so the index and
            // per-row evaluation share one comparison semantics by
            // construction — over reused three-valued scratch (incomparable
            // rows fail, per the discard-on-mismatch policy).
            for (op, constant, slot) in &kernel.cmps {
                self.truth_scratch.clear();
                self.truth_scratch.resize(rows, false);
                self.err_scratch.clear();
                self.err_scratch.resize(rows, false);
                pier_core::expr::cmp_col_const(
                    *op,
                    column,
                    constant,
                    &mut self.truth_scratch,
                    &mut self.err_scratch,
                );
                let mask = &mut self.masks[*slot as usize];
                for (r, (t, e)) in self.truth_scratch.iter().zip(&self.err_scratch).enumerate() {
                    if !*t || *e {
                        mask.clear(r);
                    }
                }
            }
        }
        // AND each member's equality outcomes into its mask, then OR all
        // members into the union the shared store absorbs.
        for kernel in &compiled.kernels {
            for &entry in &kernel.entries {
                let slot = compiled.entry_slot[entry as usize];
                self.masks[slot as usize].and_assign(&self.scratch[entry as usize]);
            }
        }
        self.union.reset(rows, false);
        for (slot, _) in self.members.iter().enumerate() {
            self.union.or_assign(&self.masks[slot]);
        }
    }

    /// Member `id`'s selection mask from the last
    /// [`PredicateIndex::eval_chunk`].
    pub fn member_mask(&self, id: u64) -> Option<&SelMask> {
        self.by_id.get(&id).map(|slot| &self.masks[*slot])
    }

    /// The union mask from the last [`PredicateIndex::eval_chunk`]: rows
    /// selected by at least one member.
    pub fn union(&self) -> &SelMask {
        &self.union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_core::{CompiledPredicate, Tuple, TupleBatch};

    fn chunk(rows: Vec<Tuple>) -> TupleBatch {
        TupleBatch::new(rows)
    }

    fn messy_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let port = match i % 6 {
                    0 => Value::Int(i % 100),
                    1 => Value::Float((i % 100) as f64),
                    2 => Value::Float(i as f64 + 0.5),
                    3 => Value::Str(format!("p{i}").into()),
                    4 => Value::Null,
                    _ => Value::Int(i % 100),
                };
                Tuple::new(
                    "packets",
                    vec![
                        ("src", Value::Str(format!("10.0.0.{}", i % 16).into())),
                        ("port", port),
                        ("len", Value::Int(40 + i % 1400)),
                    ],
                )
            })
            .collect()
    }

    /// Every member mask must equal row-by-row evaluation of the member's
    /// own predicate — the index is an optimization, never a semantics
    /// change.
    fn assert_masks_match(index: &mut PredicateIndex, preds: &[(u64, Expr)], rows: Vec<Tuple>) {
        let batch = chunk(rows);
        for chunk in batch.chunks() {
            index.eval_chunk(chunk);
            let mut union = vec![false; chunk.rows()];
            for (id, expr) in preds {
                let mut reference = CompiledPredicate::new(expr.clone());
                let compiled = reference.for_schema(chunk.schema());
                let expect: Vec<bool> = (0..chunk.rows())
                    .map(|r| compiled.matches_row(chunk, r))
                    .collect();
                let got = index.member_mask(*id).expect("member indexed").to_bools();
                assert_eq!(got, expect, "member {id} ({expr:?}) diverges");
                for (u, e) in union.iter_mut().zip(&expect) {
                    *u = *u || *e;
                }
            }
            assert_eq!(index.union().to_bools(), union, "union mask diverges");
        }
    }

    #[test]
    fn constant_varied_equality_members_match_per_row_eval() {
        let mut index = PredicateIndex::new();
        let preds: Vec<(u64, Expr)> = (0..24)
            .map(|i| (i, Expr::eq("src", format!("10.0.0.{}", i % 16).as_str())))
            .collect();
        for (id, p) in &preds {
            assert!(index.insert(*id, p.clone()));
        }
        assert_eq!(index.len(), 24);
        assert_masks_match(&mut index, &preds, messy_rows(300));
    }

    #[test]
    fn mixed_atom_shapes_match_per_row_eval() {
        let mut index = PredicateIndex::new();
        let preds: Vec<(u64, Expr)> = vec![
            (1, Expr::eq("port", 40i64)),
            (2, Expr::eq("port", 41.0)),
            (3, Expr::cmp(CmpOp::Ge, Expr::col("port"), Expr::lit(50i64))),
            (4, Expr::cmp(CmpOp::Lt, Expr::lit(60.0), Expr::col("port"))),
            (
                5,
                Expr::And(
                    Box::new(Expr::eq("src", "10.0.0.3")),
                    Box::new(Expr::cmp(CmpOp::Le, Expr::col("len"), Expr::lit(500i64))),
                ),
            ),
            // A `TRUE` conjunct adds no atom.
            (
                6,
                Expr::all(vec![Expr::eq("src", "10.0.0.1"), Expr::lit(true)]),
            ),
            // Missing column: all rows discard.
            (7, Expr::eq("nope", 1i64)),
            // Contradictory conjunction on one column: never matches.
            (
                8,
                Expr::And(
                    Box::new(Expr::eq("port", 40i64)),
                    Box::new(Expr::eq("port", 42i64)),
                ),
            ),
            // TRUE predicate: matches everything.
            (9, Expr::Const(Value::Bool(true))),
            (
                10,
                Expr::cmp(CmpOp::Ne, Expr::col("port"), Expr::lit(40i64)),
            ),
        ];
        for (id, p) in &preds {
            assert!(index.insert(*id, p.clone()));
        }
        assert_masks_match(&mut index, &preds, messy_rows(360));
    }

    #[test]
    fn huge_integer_constants_agree_with_widening_comparison() {
        // 2^53 + 1 is the first i64 that f64 cannot represent: a Float row
        // of 2^53 equals it under Value::compare's widening (both sides
        // round to 2^53), and the hash kernel's cast must not miss that.
        let k = (1i64 << 53) + 1;
        let preds: Vec<(u64, Expr)> = vec![
            (1, Expr::eq("x", k)),
            (2, Expr::eq("x", 1i64 << 53)),
            (3, Expr::eq("x", i64::MAX)),
        ];
        let mut index = PredicateIndex::new();
        for (id, p) in &preds {
            index.insert(*id, p.clone());
        }
        let rows: Vec<Tuple> = [
            Value::Float((1u64 << 53) as f64),
            Value::Float(9.3e18),
            Value::Float(f64::NAN),
            Value::Int(k),
            Value::Int(1i64 << 53),
            Value::Float(1.5),
        ]
        .into_iter()
        .map(|x| Tuple::new("t", vec![("x", x)]))
        .collect();
        assert_masks_match(&mut index, &preds, rows);
    }

    #[test]
    fn membership_changes_invalidate_and_recompile() {
        let mut index = PredicateIndex::new();
        assert!(index.insert(1, Expr::eq("src", "10.0.0.1")));
        assert!(index.insert(2, Expr::eq("src", "10.0.0.2")));
        assert!(!index.insert(2, Expr::eq("src", "other")), "duplicate id");
        let rows = messy_rows(64);
        assert_masks_match(
            &mut index,
            &[
                (1, Expr::eq("src", "10.0.0.1")),
                (2, Expr::eq("src", "10.0.0.2")),
            ],
            rows.clone(),
        );
        assert!(index.remove(1));
        assert!(!index.remove(1));
        assert_eq!(index.len(), 1);
        assert_masks_match(&mut index, &[(2, Expr::eq("src", "10.0.0.2"))], rows);
        assert!(index.member_mask(1).is_none());
        assert!(index.member_mask(2).is_some());
    }

    #[test]
    fn a_membership_change_edits_the_compiled_index_in_place() {
        let pred = |i: u64| Expr::eq("src", format!("10.0.0.{i}").as_str());
        let mut index = PredicateIndex::new();
        for i in 0..4 {
            index.insert(i, pred(i));
        }
        let rows = messy_rows(64);
        let live = |ids: &[u64]| ids.iter().map(|i| (*i, pred(*i))).collect::<Vec<_>>();
        assert_masks_match(&mut index, &live(&[0, 1, 2, 3]), rows.clone());
        let schema = Arc::clone(&index.compiled.as_ref().expect("compiled").schema);
        let kept = |index: &PredicateIndex| {
            index
                .compiled
                .as_ref()
                .is_some_and(|c| Arc::ptr_eq(&c.schema, &schema))
        };
        // Member 3 moves into slot 0; member 4 is appended on the entry
        // member 0 retired.
        assert!(index.remove(0));
        assert!(index.insert(4, pred(4)));
        assert!(kept(&index), "edited, not dropped");
        let entries = |index: &PredicateIndex| index.compiled.as_ref().map(|c| c.entry_slot.len());
        assert_eq!(entries(&index), Some(4));
        assert_masks_match(&mut index, &live(&[1, 2, 3, 4]), rows.clone());
        // As many retired entries as live ones: still in place.  A third
        // retirement outnumbers the one live entry and the index rebuilds.
        assert!(index.remove(1));
        assert!(index.remove(2));
        assert!(kept(&index));
        assert_masks_match(&mut index, &live(&[3, 4]), rows.clone());
        assert!(index.remove(3));
        assert!(index.compiled.is_none(), "mostly retired: rebuilt");
        assert_masks_match(&mut index, &live(&[4]), rows);
        assert_eq!(entries(&index), Some(1));
    }

    #[test]
    fn decompose_recognises_conjunctions_of_atoms() {
        let atoms = Expr::all(vec![
            Expr::eq("a", 1i64),
            Expr::cmp(CmpOp::Lt, Expr::lit(5i64), Expr::col("b")),
        ])
        .atoms()
        .expect("decomposes");
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[1].op, CmpOp::Gt, "const < col flips to col > const");
        assert_eq!(Expr::Const(Value::Bool(true)).atoms(), Some(vec![]));
        // Anything else is no member: the index refuses it.
        let mut index = PredicateIndex::new();
        for other in [
            Expr::cmp(CmpOp::Lt, Expr::col("a"), Expr::col("b")),
            Expr::col("a"),
            Expr::lit(false),
            Expr::cmp(CmpOp::Eq, Expr::eq("a", 1i64), Expr::lit(true)),
            Expr::all(vec![Expr::eq("a", 1i64), Expr::col("ok")]),
        ] {
            assert_eq!(other.atoms(), None, "{other:?}");
            assert!(!index.insert(1, other));
        }
        assert!(index.is_empty());
        assert!(index.insert(1, Expr::eq("a", 1i64)));
    }
}
