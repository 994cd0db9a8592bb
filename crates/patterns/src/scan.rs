//! Scan template matching (paper §3.4.2).
//!
//! Detecting a scan from first principles is hard; the paper performs a
//! post-order template match of the kernel's AST against the canonical
//! three-phase data-parallel scan, optionally helped by programmer pragmas.
//! This module matches phase I of that implementation: each block scans one
//! subarray in shared memory with a doubling loop, writes the per-element
//! partial scan, and writes the subarray total for phase II.

use paraprox_ir::{for_each_expr, Expr, Kernel, MemRef, Special, Stmt};

/// A successful match of the scan phase-I template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanMatch {
    /// Kernel parameter index of the scanned input array.
    pub input_param: usize,
    /// Kernel parameter index of the per-element partial-scan output.
    pub partial_param: usize,
    /// Kernel parameter index of the per-subarray totals output (`sumSub`).
    pub sums_param: usize,
    /// Elements scanned per block (the shared staging array's length).
    pub subarray_len: usize,
}

fn expr_contains(e: &Expr, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
    let mut found = false;
    for_each_expr(e, &mut |node| {
        if pred(node) {
            found = true;
        }
    });
    found
}

fn contains_shared_load(e: &Expr) -> bool {
    expr_contains(e, &mut |n| {
        matches!(
            n,
            Expr::Load {
                mem: MemRef::Shared(_),
                ..
            }
        )
    })
}

fn contains_param_load(e: &Expr, param: &mut Option<usize>) -> bool {
    let mut hit = false;
    for_each_expr(e, &mut |n| {
        if let Expr::Load {
            mem: MemRef::Param(p),
            ..
        } = n
        {
            hit = true;
            *param = Some(*p);
        }
    });
    hit
}

fn contains_block_id(e: &Expr) -> bool {
    expr_contains(e, &mut |n| {
        matches!(n, Expr::Special(Special::BlockIdX | Special::BlockIdY))
    })
}

fn contains_thread_id(e: &Expr) -> bool {
    expr_contains(e, &mut |n| {
        matches!(n, Expr::Special(Special::ThreadIdX | Special::ThreadIdY))
    })
}

/// Does the statement list contain a doubling loop (`<<=` step) whose body
/// has a barrier and a shared-to-shared add — the scan butterfly?
fn has_scan_loop(stmts: &[Stmt]) -> bool {
    let mut found = false;
    paraprox_ir::for_each_stmt(stmts, &mut |stmt| {
        let Stmt::For { step, body, .. } = stmt else {
            return;
        };
        if !matches!(step, paraprox_ir::LoopStep::Shl(_)) {
            return;
        }
        let mut has_sync = false;
        let mut has_butterfly = false;
        paraprox_ir::for_each_stmt(body, &mut |inner| match inner {
            Stmt::Sync => has_sync = true,
            Stmt::Store {
                mem: MemRef::Shared(_),
                // The butterfly combines two shared loads.
                value: Expr::Binary(op, a, b),
                ..
            } if op.is_reduction_compatible()
                && contains_shared_load(a)
                && contains_shared_load(b) =>
            {
                has_butterfly = true;
            }
            _ => {}
        });
        if has_sync && has_butterfly {
            found = true;
        }
    });
    found
}

/// Match phase I of the canonical data-parallel scan.
///
/// Returns `None` when the kernel does not fit the template. As the paper
/// notes (§5), template matching is sensitive to implementation variation:
/// a scan written another way is not detected, and no hint overrides the
/// template.
pub fn match_scan(kernel: &Kernel) -> Option<ScanMatch> {
    if kernel.shared.is_empty() {
        return None;
    }
    if !has_scan_loop(&kernel.body) {
        return None;
    }
    // Prologue: global -> shared staging identifies the input array.
    let mut input_param: Option<usize> = None;
    // Epilogue: shared -> global (unguarded) identifies the partial output;
    // guarded store with a blockIdx-based index identifies sumSub.
    let mut partial_param: Option<usize> = None;
    let mut sums_param: Option<usize> = None;

    paraprox_ir::for_each_stmt(&kernel.body, &mut |stmt| {
        if let Stmt::Store {
            mem: MemRef::Shared(_),
            value,
            ..
        } = stmt
        {
            let mut p = None;
            if contains_param_load(value, &mut p) && input_param.is_none() {
                input_param = p;
            }
        }
    });
    // Distinguish partial vs sums by store shape.
    fn scan_stores(
        stmts: &[Stmt],
        guarded: bool,
        partial: &mut Option<usize>,
        sums: &mut Option<usize>,
        input: Option<usize>,
    ) {
        for stmt in stmts {
            match stmt {
                Stmt::Store {
                    mem: MemRef::Param(p),
                    index,
                    value,
                } => {
                    if Some(*p) == input || !contains_shared_load(value) {
                        continue;
                    }
                    if guarded && contains_block_id(index) && !contains_thread_id(index) {
                        if sums.is_none() {
                            *sums = Some(*p);
                        }
                    } else if !guarded && partial.is_none() {
                        *partial = Some(*p);
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    scan_stores(then_body, true, partial, sums, input);
                    scan_stores(else_body, true, partial, sums, input);
                }
                Stmt::For { body, .. } => {
                    scan_stores(body, guarded, partial, sums, input);
                }
                _ => {}
            }
        }
    }
    scan_stores(
        &kernel.body,
        false,
        &mut partial_param,
        &mut sums_param,
        input_param,
    );

    let (input_param, partial_param, sums_param) = (input_param?, partial_param?, sums_param?);
    if input_param == partial_param || input_param == sums_param || partial_param == sums_param {
        return None;
    }
    Some(ScanMatch {
        input_param,
        partial_param,
        sums_param,
        subarray_len: kernel.shared[0].len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{Expr, KernelBuilder, LoopCond, LoopStep, MemSpace, Ty};

    /// Build the canonical phase-I scan kernel used by the benchmark app.
    pub fn canonical_scan_phase1(block: usize) -> Kernel {
        let mut kb = KernelBuilder::new("scan_phase1");
        let input = kb.buffer("input", Ty::F32, MemSpace::Global);
        let partial = kb.buffer("partial", Ty::F32, MemSpace::Global);
        let sums = kb.buffer("sums", Ty::F32, MemSpace::Global);
        let s_a = kb.shared_array("s_a", Ty::F32, block);
        let s_b = kb.shared_array("s_b", Ty::F32, block);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(s_a, tid.clone(), kb.load(input, gid.clone()));
        kb.sync();
        kb.for_loop(
            "d",
            Expr::i32(1),
            LoopCond::Lt(Expr::i32(block as i32)),
            LoopStep::Shl(Expr::i32(1)),
            |kb, d| {
                kb.if_else(
                    tid.clone().ge(d.clone()),
                    |kb| {
                        let a = kb.load(s_a, tid.clone());
                        let b = kb.load(s_a, tid.clone() - d.clone());
                        kb.store(s_b, tid.clone(), a + b);
                    },
                    |kb| {
                        let a = kb.load(s_a, tid.clone());
                        kb.store(s_b, tid.clone(), a);
                    },
                );
                kb.sync();
                kb.store(s_a, tid.clone(), kb.load(s_b, tid.clone()));
                kb.sync();
            },
        );
        kb.store(partial, gid, kb.load(s_a, tid.clone()));
        kb.if_(tid.clone().eq_(Expr::i32(block as i32 - 1)), |kb| {
            kb.store(sums, KernelBuilder::block_id_x(), kb.load(s_a, tid.clone()));
        });
        kb.finish()
    }

    #[test]
    fn canonical_template_matches() {
        let k = canonical_scan_phase1(64);
        let m = match_scan(&k).expect("canonical scan should match");
        assert_eq!(m.input_param, 0);
        assert_eq!(m.partial_param, 1);
        assert_eq!(m.sums_param, 2);
        assert_eq!(m.subarray_len, 64);
    }

    #[test]
    fn plain_map_kernel_does_not_match() {
        let mut kb = KernelBuilder::new("map");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(input, gid.clone()));
        kb.store(out, gid, v);
        assert!(match_scan(&kb.finish()).is_none());
    }

    #[test]
    fn reduction_tree_does_not_match() {
        // A tree reduction has a halving (Shr) loop, not a doubling one.
        let block = 64;
        let mut kb = KernelBuilder::new("reduce");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let s = kb.shared_array("s", Ty::F32, block);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(s, tid.clone(), kb.load(input, gid));
        kb.sync();
        kb.for_loop(
            "d",
            Expr::i32(block as i32 / 2),
            LoopCond::Gt(Expr::i32(0)),
            LoopStep::Shr(Expr::i32(1)),
            |kb, d| {
                kb.if_(tid.clone().lt(d.clone()), |kb| {
                    let a = kb.load(s, tid.clone());
                    let b = kb.load(s, tid.clone() + d.clone());
                    kb.store(s, tid.clone(), a + b);
                });
                kb.sync();
            },
        );
        kb.if_(tid.clone().eq_(Expr::i32(0)), |kb| {
            kb.store(out, KernelBuilder::block_id_x(), kb.load(s, Expr::i32(0)));
        });
        assert!(match_scan(&kb.finish()).is_none());
    }

    #[test]
    fn missing_sums_output_does_not_match() {
        // Same butterfly but without the guarded block-total store.
        let block = 32;
        let mut kb = KernelBuilder::new("scan_no_sums");
        let input = kb.buffer("input", Ty::F32, MemSpace::Global);
        let partial = kb.buffer("partial", Ty::F32, MemSpace::Global);
        let s_a = kb.shared_array("s_a", Ty::F32, block);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(s_a, tid.clone(), kb.load(input, gid.clone()));
        kb.sync();
        kb.for_loop(
            "d",
            Expr::i32(1),
            LoopCond::Lt(Expr::i32(block as i32)),
            LoopStep::Shl(Expr::i32(1)),
            |kb, d| {
                kb.if_(tid.clone().ge(d.clone()), |kb| {
                    let a = kb.load(s_a, tid.clone());
                    let b = kb.load(s_a, tid.clone() - d.clone());
                    kb.store(s_a, tid.clone(), a + b);
                });
                kb.sync();
            },
        );
        kb.store(partial, gid, kb.load(s_a, tid));
        assert!(match_scan(&kb.finish()).is_none());
    }
}
