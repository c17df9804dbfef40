//! The cost-based physical planner: statistics-driven join ordering.
//!
//! Sitting between translation and evaluation, [`plan_program`] computes
//! for every rule body an evaluation order by greedy selectivity search:
//! starting from the bound set (constants, then variables bound by
//! already-placed atoms), it repeatedly places the positive atom with the
//! smallest estimated probe cardinality ([`DbStats::estimate`] — rows
//! divided by the distinct counts of the bound positions), and pushes
//! filter conditions, assignments and negation checks to the earliest
//! position at which all their variables are bound. Each placed atom also
//! records the exact `(pred, mask)` hash index its probe will use, so a
//! frozen snapshot can build precisely the indexes live plans name
//! instead of all `2^arity - 1` masks.
//!
//! A filter condition can drive a probe too (filter-aware planning): an
//! equality `X = K` or `sameTerm(X, K)` whose side `K` is already known
//! (a constant or a bound variable) turns the positions of an unplaced
//! atom holding `X` into probe-key positions keyed by `K`'s value (see
//! `atom_probe`, which the evaluator shares). The condition itself still
//! runs right after the probe as the exact check; the key only narrows
//! the rows it sees.
//!
//! Semi-naive delta variants get their own orders (one per positive body
//! occurrence of a stratum-written predicate) with the delta atom pinned
//! first — the delta-first constraint of semi-naive evaluation — and the
//! rest ordered by the same greedy search.
//!
//! The orders are *advice*: [`crate::eval`]'s `compile_rule` recomputes
//! masks and re-verifies rule safety from whatever order it is handed, so
//! a stale or mismatched plan can cost performance but never correctness.

use crate::database::Mask;
use crate::expr::{CmpOp, Expr};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::rule::{Atom, AtomArg, BodyItem, Program, Rule, VarId};
use crate::stats::DbStats;
use crate::stratify::{stratify, StratifyError};
use crate::symbols::{Sym, SymbolTable};
use crate::value::Const;

/// The planned probe of one positive body atom.
#[derive(Debug, Clone)]
pub struct AtomPlan {
    /// Index of the atom in the rule's body (source position).
    pub item_idx: usize,
    /// The probed predicate.
    pub pred: Sym,
    /// Bound-position mask of the probe (0 = full scan; for a pinned
    /// delta atom the scan is batch-driven and the mask is 0).
    pub mask: Mask,
    /// Estimated probe output cardinality at planning time.
    pub estimate: f64,
    /// The subset of `mask` keyed by an equality condition rather than
    /// by a constant or an already-bound variable of the atom itself.
    pub keyed: Mask,
    /// True for a cross product: an atom after the first whose probe
    /// has neither a bound variable position nor a condition key, so
    /// every row it yields pairs with every row before it.
    pub cross: bool,
}

/// A planned evaluation order for one rule body.
#[derive(Debug, Clone)]
pub struct RuleOrder {
    /// Body item indices in evaluation order (all items, not only atoms).
    pub order: Vec<usize>,
    /// Probe plans of the positive atoms, in evaluation order.
    pub atoms: Vec<AtomPlan>,
}

/// A physical plan for a program: per-rule body orders for the naive
/// pass, per-`(rule, delta occurrence)` orders for the semi-naive
/// rounds, and the index masks they probe.
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    /// One order per program rule (parallel to `program.rules`).
    pub rules: Vec<RuleOrder>,
    /// Delta-variant orders, keyed by `(rule index, body item index of
    /// the delta occurrence)`.
    pub delta: FxHashMap<(usize, usize), RuleOrder>,
}

impl ProgramPlan {
    /// The distinct `(pred, mask)` hash indexes the plan's probes use —
    /// what a frozen snapshot needs eagerly built for this plan to run
    /// at full speed.
    pub fn index_needs(&self) -> Vec<(Sym, Mask)> {
        let mut out: Vec<(Sym, Mask)> = Vec::new();
        let atoms = self
            .rules
            .iter()
            .chain(self.delta.values())
            .flat_map(|r| r.atoms.iter());
        for a in atoms {
            if a.mask != 0 && !out.contains(&(a.pred, a.mask)) {
                out.push((a.pred, a.mask));
            }
        }
        out
    }

    /// Cross-product probes in the naive-pass orders (one per rule; the
    /// delta variants re-order the same bodies and are not counted
    /// again) — what `sparqlog_plan_cross_products_total` accumulates.
    pub fn cross_products(&self) -> usize {
        self.rules
            .iter()
            .flat_map(|r| &r.atoms)
            .filter(|a| a.cross)
            .count()
    }

    /// Renders the plan for humans: per rule the chosen atom order, probe
    /// masks (with the condition-keyed part as `keyed=`), cardinality
    /// estimates and a `cross` mark on cross-product probes — the payload
    /// of the serving layer's `explain`.
    pub fn render(&self, program: &Program, symbols: &SymbolTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (ri, (rule, ro)) in program.rules.iter().zip(&self.rules).enumerate() {
            let _ = writeln!(out, "rule {ri}: {}", rule.display(symbols));
            render_order(&mut out, ro);
            for ((r2, di), dro) in self.delta.iter().filter(|((r2, _), _)| *r2 == ri) {
                let _ = writeln!(out, "  delta variant (rule {r2}, body item {di}):");
                render_order(&mut out, dro);
            }
        }
        out
    }
}

fn render_order(out: &mut String, ro: &RuleOrder) {
    use std::fmt::Write;
    let _ = writeln!(out, "  order: {:?}", ro.order);
    for a in &ro.atoms {
        let _ = write!(
            out,
            "    probe item {} mask={:#b} est={:.1}",
            a.item_idx, a.mask, a.estimate
        );
        if a.keyed != 0 {
            let _ = write!(out, " keyed={:#b}", a.keyed);
        }
        let _ = writeln!(out, "{}", if a.cross { " cross" } else { "" });
    }
}

/// Plans every rule of `program` against `stats`: greedy selectivity
/// ordering for the naive pass plus delta-pinned variants for the
/// semi-naive rounds. Fails only if the program does not stratify (the
/// same error evaluation itself would report).
pub fn plan_program(
    program: &Program,
    symbols: &SymbolTable,
    stats: &DbStats,
) -> Result<ProgramPlan, StratifyError> {
    let strat = stratify(program, symbols)?;
    let rules = program
        .rules
        .iter()
        .map(|r| order_body(r, symbols, stats, None))
        .collect();
    let mut delta = FxHashMap::default();
    for stratum in &strat.strata {
        let writes: FxHashSet<Sym> = strat.stratum_writes(stratum).into_iter().collect();
        for &ri in stratum {
            let rule = &program.rules[ri];
            if rule.aggregate.is_some() {
                continue;
            }
            for di in rule.positive_occurrences_of(&writes) {
                delta.insert((ri, di), order_body(rule, symbols, stats, Some(di)));
            }
        }
    }
    Ok(ProgramPlan { rules, delta })
}

/// True when a non-atom body item's variables are all bound.
fn ready(item: &BodyItem, bound: &[bool]) -> bool {
    match item {
        BodyItem::Cond(e) | BodyItem::Assign(_, e) => {
            let mut vs = Vec::new();
            e.collect_vars(&mut vs);
            vs.iter().all(|&v| bound[v as usize])
        }
        BodyItem::Neg(a) => a.vars().iter().all(|&v| bound[v as usize]),
        BodyItem::Pos(_) => false,
    }
}

/// Where one probe-key value comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeyArg<'r> {
    /// A constant: one of the atom's own, or the known side of a keying
    /// condition.
    Const(&'r Const),
    /// A bound variable: one of the atom's own, or the known side of a
    /// keying condition.
    Var(VarId),
}

/// The probe a positive atom makes when placed under a bound set.
pub(crate) struct AtomProbe<'r> {
    /// Positions whose value is known: constants, bound variables and
    /// condition keys.
    pub mask: Mask,
    /// One key source per `mask` bit, in ascending position order.
    pub key: Vec<KeyArg<'r>>,
    /// The positions keyed by a condition (a subset of `mask`).
    pub keyed: Mask,
    /// The keyed positions whose key is exact only for a non-numeric
    /// value: `X = Y` with `Y` a variable (value equality coerces
    /// numerics, so `TermId` equality would miss `1 = 1.0`).
    pub guarded: Mask,
    /// True when some argument variable is already bound.
    pub joins: bool,
}

/// The probe of `atom` under `bound`: its bound positions plus every
/// position whose unbound variable `X` a body condition keys (see
/// [`cond_key`]). Shared by the planner and the evaluator's
/// `compile_rule`, which re-derives it from whatever order it is handed.
pub(crate) fn atom_probe<'r>(
    rule: &'r Rule,
    atom: &'r Atom,
    bound: &[bool],
    symbols: &SymbolTable,
) -> AtomProbe<'r> {
    let mut p = AtomProbe {
        mask: 0,
        key: Vec::new(),
        keyed: 0,
        guarded: 0,
        joins: false,
    };
    for (i, arg) in atom.args.iter().enumerate() {
        let (src, guard) = match arg {
            AtomArg::Const(c) => (KeyArg::Const(c), false),
            AtomArg::Var(v) if bound[*v as usize] => {
                p.joins = true;
                (KeyArg::Var(*v), false)
            }
            AtomArg::Var(v) => match cond_key(rule, *v, bound, symbols) {
                Some((src, guard)) => {
                    p.keyed |= 1 << i;
                    (src, guard)
                }
                None => continue,
            },
        };
        p.mask |= 1 << i;
        if guard {
            p.guarded |= 1 << i;
        }
        p.key.push(src);
    }
    p
}

/// A condition-derived key for the unbound variable `v`: a body
/// condition — or a top-level `&&` conjunct of one, which must hold
/// for the condition to — of the form `v = K` or `sameTerm(v, K)` whose
/// other side `K` is a constant or a variable in `bound`. Returns the
/// key source and whether it is guarded (`=` against a variable).
///
/// `sameTerm` is term identity, so its key is always exact. `=` is value
/// equality, which on a non-numeric term is identity too; against a
/// numeric constant it forms no key (`"01"^^xsd:integer = 1` would be
/// missed), and against a variable the evaluator checks the value at
/// probe time. Unguarded keys are preferred.
fn cond_key<'r>(
    rule: &'r Rule,
    v: VarId,
    bound: &[bool],
    symbols: &SymbolTable,
) -> Option<(KeyArg<'r>, bool)> {
    fn conjuncts<'e>(e: &'e Expr, f: &mut dyn FnMut(&'e Expr)) {
        match e {
            Expr::And(a, b) => {
                conjuncts(a, f);
                conjuncts(b, f);
            }
            other => f(other),
        }
    }
    let (mut exact, mut guarded) = (None, None);
    let mut consider = |c: &'r Expr| {
        let (same_term, a, b) = match c {
            Expr::Cmp(CmpOp::Eq, a, b) => (false, a, b),
            Expr::SameTerm(a, b) => (true, a, b),
            _ => return,
        };
        let other = match (a.as_ref(), b.as_ref()) {
            (Expr::Var(x), o) | (o, Expr::Var(x)) if *x == v => o,
            _ => return,
        };
        match other {
            Expr::Const(k) if same_term || k.as_f64(symbols).is_none() => {
                exact.get_or_insert(KeyArg::Const(k));
            }
            Expr::Var(w) if *w != v && bound[*w as usize] => {
                let slot = if same_term { &mut exact } else { &mut guarded };
                slot.get_or_insert(KeyArg::Var(*w));
            }
            _ => {}
        }
    };
    for item in &rule.body {
        if let BodyItem::Cond(e) = item {
            conjuncts(e, &mut consider);
        }
    }
    match (exact, guarded) {
        (Some(k), _) => Some((k, false)),
        (None, Some(k)) => Some((k, true)),
        (None, None) => None,
    }
}

/// Greedy selectivity ordering of one rule body. With `pinned =
/// Some(di)`, body item `di` (the delta occurrence) is placed first —
/// its scan is driven by the delta batch, not an index probe.
fn order_body(
    rule: &Rule,
    symbols: &SymbolTable,
    stats: &DbStats,
    pinned: Option<usize>,
) -> RuleOrder {
    let n = rule.body.len();
    let mut bound = vec![false; rule.var_names.len()];
    let mut order = Vec::with_capacity(n);
    let mut atoms = Vec::new();
    let mut remaining: Vec<usize> = (0..n).collect();

    if let Some(di) = pinned {
        remaining.retain(|&i| i != di);
        if let BodyItem::Pos(a) = &rule.body[di] {
            for v in a.vars() {
                bound[v as usize] = true;
            }
            atoms.push(AtomPlan {
                item_idx: di,
                pred: a.pred,
                mask: 0,
                estimate: 0.0,
                keyed: 0,
                cross: false,
            });
        }
        order.push(di);
    }

    while !remaining.is_empty() {
        // Filters, assignments and negation checks run as soon as their
        // variables are bound (earliest evaluable position, source order
        // among the simultaneously ready).
        if let Some(k) = remaining.iter().position(|&i| ready(&rule.body[i], &bound)) {
            let i = remaining.remove(k);
            if let BodyItem::Assign(v, _) = &rule.body[i] {
                bound[*v as usize] = true;
            }
            order.push(i);
            continue;
        }
        // Otherwise the positive atom with the smallest estimated probe
        // cardinality under the current bound set (condition keys
        // included). `remaining` is in ascending source order and
        // `min_by` keeps the first minimum, so exact ties resolve to
        // source order.
        let (k, probe, est) = remaining
            .iter()
            .enumerate()
            .filter_map(|(k, &i)| match &rule.body[i] {
                BodyItem::Pos(a) => {
                    let probe = atom_probe(rule, a, &bound, symbols);
                    let est = stats.estimate(a.pred, probe.mask);
                    Some((k, probe, est))
                }
                _ => None,
            })
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .expect("unplaced non-atom item has variables no remaining atom binds");
        let i = remaining.remove(k);
        if let BodyItem::Pos(a) = &rule.body[i] {
            let vars = a.vars();
            // A variable-free atom is an existence check, not a product.
            let cross = !atoms.is_empty() && !probe.joins && probe.keyed == 0 && !vars.is_empty();
            for v in vars {
                bound[v as usize] = true;
            }
            atoms.push(AtomPlan {
                item_idx: i,
                pred: a.pred,
                mask: probe.mask,
                estimate: est,
                keyed: probe.keyed,
                cross,
            });
        }
        order.push(i);
    }

    RuleOrder { order, atoms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::parser::parse_program;
    use crate::value::Const;

    /// A star join whose selective atom sits last in rule text: the
    /// planner must pull it to the front.
    fn star_fixture() -> (Database, Program) {
        let mut db = Database::new();
        let (big1, big2, tiny) = (
            db.symbols().intern("big1"),
            db.symbols().intern("big2"),
            db.symbols().intern("tiny"),
        );
        let rows: Vec<Vec<Const>> = (0..500)
            .map(|i| vec![Const::Int(i % 50), Const::Int(i)])
            .collect();
        db.load_rows(big1, &rows);
        db.load_rows(big2, &rows);
        db.load_rows(tiny, &[vec![Const::Int(7)]]);
        let prog = parse_program(
            "q(Y, Z) :- big1(X, Y), big2(X, Z), tiny(X).\n@output(\"q\").\n",
            db.symbols(),
        )
        .unwrap();
        (db, prog)
    }

    #[test]
    fn selective_atom_moves_first() {
        let (db, prog) = star_fixture();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        // tiny (1 row) first, then the two indexed probes on X.
        assert_eq!(plan.rules[0].order, vec![2, 0, 1]);
        let masks: Vec<Mask> = plan.rules[0].atoms.iter().map(|a| a.mask).collect();
        assert_eq!(masks, vec![0, 0b001, 0b001]);
        // Index needs name exactly the bound-X probes.
        let needs = plan.index_needs();
        let big1 = db.symbols().get("big1").unwrap();
        let big2 = db.symbols().get("big2").unwrap();
        assert!(needs.contains(&(big1, 0b001)) && needs.contains(&(big2, 0b001)));
    }

    #[test]
    fn delta_variant_pins_delta_first() {
        let mut db = Database::new();
        let e = db.symbols().intern("edge");
        let rows: Vec<Vec<Const>> = (0..20)
            .map(|i| vec![Const::Int(i), Const::Int(i + 1)])
            .collect();
        db.load_rows(e, &rows);
        let prog = parse_program(
            "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n@output(\"tc\").\n",
            db.symbols(),
        )
        .unwrap();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        // Rule 1's only delta occurrence is tc at body item 1; the
        // variant must start there.
        let ro = &plan.delta[&(1, 1)];
        assert_eq!(ro.order[0], 1);
        assert_eq!(ro.atoms[0].mask, 0, "delta scan is batch-driven");
        assert_ne!(ro.atoms[1].mask, 0, "the other atom probes an index");
    }

    #[test]
    fn filters_run_at_earliest_evaluable_position() {
        let mut db = Database::new();
        let p = db.symbols().intern("p");
        let q = db.symbols().intern("q");
        let rows: Vec<Vec<Const>> = (0..100)
            .map(|i| vec![Const::Int(i), Const::Int(i)])
            .collect();
        db.load_rows(p, &rows);
        db.load_rows(q, &rows[..5]);
        // Filter mentions only X (bound by whichever atom goes first);
        // it must run before the second atom either way.
        let prog = parse_program(
            "out(X, Y) :- p(X, A), q(X, Y), A > 3.\n@output(\"out\").\n",
            db.symbols(),
        )
        .unwrap();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        let order = &plan.rules[0].order;
        // q (5 rows) first, then the filter is not yet ready (A unbound),
        // p probes on X, filter last-but-ready.
        assert_eq!(order[0], 1, "smaller q leads");
        let filter_pos = order.iter().position(|&i| i == 2).unwrap();
        let p_pos = order.iter().position(|&i| i == 0).unwrap();
        assert!(filter_pos > p_pos, "filter needs A from p");
    }

    /// `out(X, Y) :- p(X, A), q(B, Y)` over a 10-row `p` and a 50-row
    /// `q`, plus the condition `cond` builds from the variable ids of
    /// `(X, A, B)`.
    fn pair_plan(
        cond: impl Fn(VarId, VarId, VarId) -> Option<Expr>,
    ) -> (Database, Program, ProgramPlan) {
        let mut db = Database::new();
        let p = db.symbols().intern("p");
        let q = db.symbols().intern("q");
        let rows: Vec<Vec<Const>> = (0..50)
            .map(|i| vec![Const::Int(i), Const::Int(i % 5)])
            .collect();
        db.load_rows(p, &rows[..10]);
        db.load_rows(q, &rows);
        let mut prog = parse_program(
            "out(X, Y) :- p(X, A), q(B, Y).\n@output(\"out\").\n",
            db.symbols(),
        )
        .unwrap();
        let rule = &mut prog.rules[0];
        let var = |n: &str| rule.var_names.iter().position(|v| v == n).unwrap() as VarId;
        let (x, a, b) = (var("X"), var("A"), var("B"));
        if let Some(e) = cond(x, a, b) {
            rule.body.push(BodyItem::Cond(e));
        }
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        (db, prog, plan)
    }

    fn cmp(op: CmpOp, l: Expr, r: Expr) -> Expr {
        Expr::Cmp(op, Box::new(l), Box::new(r))
    }

    #[test]
    fn equality_condition_keys_the_probe() {
        let (_, _, plan) = pair_plan(|_, a, b| Some(cmp(CmpOp::Eq, Expr::Var(a), Expr::Var(b))));
        let ro = &plan.rules[0];
        assert_eq!(ro.atoms[0].item_idx, 0, "the smaller p leads");
        // q's B position is keyed by A's value: a non-zero mask, not a
        // full scan, and the condition still runs after the probe.
        assert_eq!(ro.atoms[1].mask, 0b01);
        assert_eq!(ro.atoms[1].keyed, 0b01);
        assert!(!ro.atoms[1].cross);
        assert_eq!(ro.order, vec![0, 1, 2]);
        assert_eq!(plan.cross_products(), 0);
    }

    #[test]
    fn constant_keys_follow_the_numeric_rule() {
        let keyed = |cond: &dyn Fn(VarId, VarId, VarId) -> Option<Expr>| {
            let (_, _, plan) = pair_plan(cond);
            plan.rules[0]
                .atoms
                .iter()
                .map(|a| a.keyed)
                .collect::<Vec<Mask>>()
        };
        let s = |c: Const| Expr::Const(c);
        // `=` against a non-numeric constant and `sameTerm` against any
        // constant key the position — the keyed q then leads; `=`
        // against a numeric constant cannot (value equality coerces).
        assert_eq!(
            keyed(&|_, _, b| Some(cmp(CmpOp::Eq, s(Const::Bool(true)), Expr::Var(b)))),
            vec![0b01, 0]
        );
        assert_eq!(
            keyed(&|_, _, b| Some(Expr::SameTerm(
                Box::new(Expr::Var(b)),
                Box::new(s(Const::Int(3)))
            ))),
            vec![0b01, 0]
        );
        assert_eq!(
            keyed(&|_, _, b| Some(cmp(CmpOp::Eq, Expr::Var(b), s(Const::Int(3))))),
            vec![0, 0]
        );
        // A `&&` conjunct keys too; a `||` disjunct does not.
        let eq = |a, b| cmp(CmpOp::Eq, Expr::Var(a), Expr::Var(b));
        let gt = |x| cmp(CmpOp::Gt, Expr::Var(x), s(Const::Int(1)));
        assert_eq!(
            keyed(&|x, a, b| Some(Expr::And(Box::new(eq(a, b)), Box::new(gt(x))))),
            vec![0, 0b01]
        );
        assert_eq!(
            keyed(&|x, a, b| Some(Expr::Or(Box::new(eq(a, b)), Box::new(gt(x))))),
            vec![0, 0]
        );
        // Neither `!=` nor `<` forms a key.
        for op in [CmpOp::Neq, CmpOp::Lt] {
            assert_eq!(
                keyed(&|_, a, b| Some(cmp(op, Expr::Var(a), Expr::Var(b)))),
                vec![0, 0]
            );
        }
    }

    #[test]
    fn cross_products_are_counted_and_rendered() {
        let (db, prog, plan) = pair_plan(|_, _, _| None);
        assert!(plan.rules[0].atoms[1].cross);
        assert_eq!(plan.cross_products(), 1);
        let text = plan.render(&prog, db.symbols());
        assert!(text.contains(" cross"), "{text}");
        let (db, prog, plan) =
            pair_plan(|_, a, b| Some(cmp(CmpOp::Eq, Expr::Var(a), Expr::Var(b))));
        let text = plan.render(&prog, db.symbols());
        assert!(
            !text.contains("cross") && text.contains("keyed=0b1"),
            "{text}"
        );
    }

    #[test]
    fn render_mentions_orders_and_masks() {
        let (db, prog) = star_fixture();
        let stats = DbStats::collect(db.relations());
        let plan = plan_program(&prog, db.symbols(), &stats).unwrap();
        let text = plan.render(&prog, db.symbols());
        assert!(text.contains("order: [2, 0, 1]"), "{text}");
        assert!(text.contains("mask=0b1"), "{text}");
        assert!(text.contains("est="), "{text}");
    }
}
