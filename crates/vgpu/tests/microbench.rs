//! Closed-form microbenchmarks of the cost model.
//!
//! Each case launches a one-line kernel whose charge can be worked out by
//! hand from the [`DeviceProfile`] alone, and checks the device charges
//! exactly that: the numbers come from the profile's fields, never from a
//! recording of an earlier run.

use paraprox_ir::{BinOp, Expr, KernelBuilder, MemSpace, Program, Ty};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, LaunchStats};

fn profiles() -> [DeviceProfile; 2] {
    [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()]
}

/// Launch, on a fresh device, one block of `lanes` lanes of a kernel whose
/// only memory access is `let v = src[index(gid)]`, `src` holding `len`
/// words in `space`.
fn one_load(
    profile: &DeviceProfile,
    space: MemSpace,
    len: usize,
    lanes: usize,
    index: impl Fn(Expr) -> Expr,
) -> LaunchStats {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("one_load");
    let src = kb.buffer("src", Ty::F32, space);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.let_("v", kb.load(src, index(gid)));
    let kid = program.add_kernel(kb.finish());
    let mut device = Device::new(profile.clone());
    let buf = device.alloc_f32(space, &vec![1.0; len]);
    let stats = device
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(lanes),
            &[ArgValue::Buffer(buf)],
        )
        .expect("launch");
    assert_eq!((stats.loads, stats.stores), (1, 0), "one warp, one load");
    stats
}

/// Lanes of one warp reading 4-byte words `stride` words apart touch one
/// L1 line per `line / (4 * stride)` lanes, and each lane its own line
/// once `4 * stride` reaches the line: the smallest such stride is the
/// profile's L1 line size.
#[test]
fn a_stride_sweep_recovers_the_l1_line_size() {
    for profile in profiles() {
        let (warp, line) = (profile.warp_width, profile.cache.l1.line);
        let mut recovered = None;
        for stride in (0..8).map(|k| 1usize << k) {
            let stats = one_load(&profile, MemSpace::Global, warp * stride, warp, |gid| {
                gid * Expr::i32(stride as i32)
            });
            let per_warp = stats.load_transactions / stats.loads;
            let span = (warp * stride * 4) as u64;
            assert_eq!(
                per_warp,
                span.div_ceil(line as u64).min(warp as u64),
                "{}: stride {stride}",
                profile.name
            );
            if per_warp == warp as u64 && recovered.is_none() {
                recovered = Some(4 * stride);
            }
        }
        assert_eq!(recovered, Some(line), "{}", profile.name);
    }
}

/// `k` distinct words of constant memory read by one warp serialize: `k`
/// transactions, `k - 1` of them serialized. From a cold constant cache,
/// the first word of each line misses and the rest hit, so the load pays
/// the DRAM latency once (hidden by `latency_hiding`), `const_hit_lat` per
/// hit and `mem_issue` per miss past the first.
#[test]
fn constant_words_serialize_at_the_closed_form_charge() {
    for profile in profiles() {
        let warp = profile.warp_width;
        let words_per_line = (profile.cache.constant.line / 4) as u64;
        for k in [1, 2, 3, warp / 2, warp - 1, warp] {
            let stats = one_load(&profile, MemSpace::Constant, warp, warp, |gid| {
                Expr::Binary(BinOp::Rem, Box::new(gid), Box::new(Expr::i32(k as i32)))
            });
            let k = k as u64;
            let misses = k.div_ceil(words_per_line);
            let hits = k - misses;
            let p = &profile;
            let cycles =
                p.mem_lat / p.latency_hiding + hits * p.const_hit_lat + (misses - 1) * p.mem_issue;
            let at = format!("{}: {k} words", p.name);
            assert_eq!(stats.load_transactions, k, "{at}");
            assert_eq!(stats.serialized_transactions, k - 1, "{at}");
            assert_eq!(
                (stats.const_hits, stats.const_misses),
                (hits, misses),
                "{at}"
            );
            assert_eq!(stats.memory_cycles, cycles, "{at}");
        }
    }
}
