//! Blocked nonbonded kernel — the one the force field runs.
//!
//! A pair-at-a-time kernel (the oracle, `nonbonded::pair_energy_force`)
//! walks `Vec<Vec3>` positions, mixes LJ parameters per pair and branches
//! on cutoff, LJ activity and charge products. This module walks the
//! neighbor list in blocks of pairs and splits the loop into three phases
//! per block, the middle one over parallel `f64` block buffers.
//!
//! The list is a [`PairList`], stored by home atom: a block is `BLOCK`
//! consecutive pairs of the range being evaluated, whatever runs it cuts,
//! and phase 0 walks it run by run — one loop over each run's stretch of
//! partners, the home atom fixed — forming each pair's `(min, max)` as it
//! goes. A chunk of a multi-thread evaluation is a range of pair indices;
//! the run that holds its first pair is found once per call, by bisection.
//! So the pair sequence, the block boundaries, the run numbers of phase 2
//! and every sum are those of a flat list of `(min, max)` pairs.
//!
//! - **Phase 0 (gather and screen)**: the only indexed loads. Atom data is
//!   packed as one `[x, y, z, q]` quad per atom so a random neighbor access
//!   touches a single cache line; the mixed LJ constants come out of the
//!   type table (a handful of entries, resident in L1). The minimum image
//!   and `r²` are taken here, in scalar code, because they decide whether
//!   the pair goes any further: every pair is written to lane `len` of the
//!   block buffers, and `len` moves on only for a pair inside the cutoff and
//!   off the overlap floor (no branch). A Verlet list reaches `cutoff +
//!   skin`: at 9 + 1.5 Å, 37 % of it by volume contributes nothing, and the
//!   phases below never see it. Nothing is stored per pair beyond the list
//!   itself (parameter lanes cost 5.7 MB per context at 2881 atoms to save
//!   ~1 ns per pair).
//! - **Phase 1 (arithmetic)**: branch-free, index-free, mask-free math over
//!   the kept lanes and, when the potential is unscreened, free of calls —
//!   which is what lets LLVM vectorise the loop for the target everyone
//!   builds: baseline x86-64 (SSE2, two lanes), no `RUSTFLAGS`. On that
//!   target `f64`'s fused multiply-add, `round` and `floor` are calls into
//!   libm (FMA and `roundpd` are not in the baseline), and a vector loop
//!   unpacks every lane to make them; so products are written `a * b + c`,
//!   and the minimum image is multiply + `system::nearest` (two additions;
//!   on a tie it picks the other of two equidistant images, `L/2` away,
//!   which the cutoff screens out either way). Both also make the result the
//!   same bits whether or not the host has FMA. Fusing the indexed loads into
//!   this loop *defeated* vectorization and ran slower than a pair-at-a-time
//!   loop. The only division per pair is `1/r²` (`1/r = sqrt(1/r²)`), and
//!   `exp` — a libm call per pair — is only present when the potential is
//!   screened (`kappa > 0`, dispatched once per call via a const generic).
//!   The LJ energy shift is recomputed from `eps4`/`sig2` and the hoisted
//!   `1/rc²` rather than kept as a third constant per table entry.
//! - **Phase 2 (scatter)**: scalar indexed accumulation, kept out of phase
//!   1 so it cannot inhibit vectorization. The list is long runs of one
//!   home atom — as `i` whenever its partner has the larger index. The
//!   scatter accumulates a run of equal `i` in registers and touches
//!   `forces[i]` once per run. A run of `i` is numbered in phase 0 over
//!   every pair, kept or not: home 5 with partners 9, 3 and 20 is `(5, 9)`,
//!   `(3, 5)`, `(5, 20)`, and if a screened-out `(3, 5)` did not end the
//!   first run of `i = 5`, summing across it would re-associate `f[5]` —
//!   the last bit of a force would depend on what the cutoff dropped, where
//!   a dropped pair used to add an exact zero.
//!
//! Per-atom quads are refreshed every evaluation (positions drift each MD
//! step). Box constants store edge lengths and their precomputed
//! reciprocals, with vacuum encoded as zeros so the minimum-image shift
//! vanishes without a branch. DESIGN.md §10 has the
//! `objdump` line that shows what the release binary's loop contains.

use super::nonbonded::{LjTable, NbScalars};
use crate::neighbor::PairList;
use crate::system::{nearest, PbcBox};
use crate::vec3::Vec3;
use std::ops::Range;

/// Pairs listed per block. The block buffers total 12.5 KiB — comfortably
/// L1-resident next to the gather traffic — and the block is long enough to
/// amortize the scalar scatter loop. (128 was chosen over 32/64/256 on a
/// `target-cpu=native` build; not re-measured on the default target.)
const BLOCK: usize = 128;

/// Squared-distance floor mirroring the oracle kernel's overlap guard
/// (`r2 < 1e-12` contributes nothing): screened out with the far pairs.
const MIN_R2: f64 = 1e-12;

/// The kernel's view of the atoms. Owned by `EvalContext`; the buffer is
/// reused across evaluations so steady-state MD steps do not allocate.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaNonbonded {
    /// Per-atom packed `[x, y, z, q]` quads: one 32-byte cache-line burst
    /// per gathered neighbor instead of four scattered lane reads.
    xyzq: Vec<[f64; 4]>,
    // Box constants (zeros in vacuum — branch-free minimum image).
    edge: [f64; 3],
    inv: [f64; 3],
}

impl SoaNonbonded {
    /// Refresh the per-atom quads (every evaluation: positions move each
    /// step, charges shift with pH) and the box constants.
    pub(crate) fn sync_atoms(&mut self, positions: &[Vec3], charges: &[f64], pbc: &PbcBox) {
        self.xyzq.clear();
        self.xyzq.reserve(positions.len());
        self.xyzq.extend(positions.iter().zip(charges).map(|(p, &q)| [p.x, p.y, p.z, q]));
        let e = pbc.edge();
        let i = pbc.inv_edge();
        self.edge = [e.x, e.y, e.z];
        self.inv = [i.x, i.y, i.z];
    }

    /// Evaluate the pairs `range` of `list` under the mixing table `lj`,
    /// returning `(lj, coulomb)` energy sums and (optionally) scattering
    /// forces into `forces` (length = n_atoms). Blocks are `BLOCK` pairs of
    /// the range, whatever runs they cut.
    ///
    /// Screened and unscreened Coulomb are monomorphized separately so the
    /// common `kappa == 0` case contains no `exp` at all; at `kappa == 0`
    /// the screened expressions reduce to the unscreened ones exactly
    /// (`exp(0) = 1` multiplies through), so the dispatch is seamless.
    pub(crate) fn eval(
        &self,
        sc: &NbScalars,
        lj: &LjTable,
        list: &PairList,
        range: Range<usize>,
        forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        if sc.kappa == 0.0 {
            self.eval_impl::<false>(sc, lj, list, range, forces)
        } else {
            self.eval_impl::<true>(sc, lj, list, range, forces)
        }
    }

    fn eval_impl<const SCREENED: bool>(
        &self,
        sc: &NbScalars,
        lj: &LjTable,
        list: &PairList,
        range: Range<usize>,
        mut forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        let xyzq = &self.xyzq[..];
        let [ex, ey, ez] = self.edge;
        let [ix, iy, iz] = self.inv;
        // Hoisted 1/rc² for the in-loop energy-shift recomputation; no
        // division (NbScalars carries 1/rc), and 0 when the cutoff is
        // infinite so the shift vanishes exactly, matching the table.
        let inv_rc2 = sc.inv_rc * sc.inv_rc;
        let mut lj_total = 0.0;
        let mut coul_total = 0.0;
        let mut dxs = [0.0f64; BLOCK];
        let mut dys = [0.0f64; BLOCK];
        let mut dzs = [0.0f64; BLOCK];
        let mut qqs = [0.0f64; BLOCK];
        let mut eps4 = [0.0f64; BLOCK];
        let mut sig2 = [0.0f64; BLOCK];
        let mut e_lj = [0.0f64; BLOCK];
        let mut e_c = [0.0f64; BLOCK];
        let mut fx = [0.0f64; BLOCK];
        let mut fy = [0.0f64; BLOCK];
        let mut fz = [0.0f64; BLOCK];
        // The kept lanes' atoms, and the run of the list each came from.
        let mut is = [0u32; BLOCK];
        let mut js = [0u32; BLOCK];
        let mut runs = [0u32; BLOCK];
        let (homes, partners) = (&list.runs[..], &list.partners[..]);
        // The run that holds the block's next pair: found once per call.
        let mut r = list.run_of(range.start);
        for block_start in range.clone().step_by(BLOCK) {
            // Phase 0: gather, image, screen. The only indexed loads in the
            // kernel; a lane is kept only if `len` moves past it. Each run's
            // stretch of the block is one loop over its partners.
            let block_end = (block_start + BLOCK).min(range.end);
            let mut len = 0;
            let mut run = 0;
            let mut run_i = homes[r].0.min(partners[block_start]);
            let mut p = block_start;
            while p < block_end {
                let home = homes[r].0;
                let run_end = list.run_end(r);
                let end = run_end.min(block_end);
                r += usize::from(end == run_end);
                for &partner in &partners[p..end] {
                    let (i, j) = (home.min(partner), home.max(partner));
                    run += u32::from(i != run_i);
                    run_i = i;
                    let a = xyzq[i as usize];
                    let b = xyzq[j as usize];
                    let mut dx = a[0] - b[0];
                    let mut dy = a[1] - b[1];
                    let mut dz = a[2] - b[2];
                    dx -= ex * nearest(dx * ix);
                    dy -= ey * nearest(dy * iy);
                    dz -= ez * nearest(dz * iz);
                    let r2 = dx * dx + dy * dy + dz * dz;
                    dxs[len] = dx;
                    dys[len] = dy;
                    dzs[len] = dz;
                    qqs[len] = a[3] * b[3];
                    let mixed = lj.entry(i as usize, j as usize);
                    eps4[len] = mixed.eps4;
                    sig2[len] = mixed.sigma2;
                    is[len] = i;
                    js[len] = j;
                    runs[len] = run;
                    // False for NaN: a non-finite coordinate contributes
                    // nothing here and is caught where it lives
                    // (`State::is_finite`).
                    len += usize::from((r2 < sc.rc2) & (r2 >= MIN_R2));
                }
                p = end;
            }
            // Phase 1: branch-free, index-free fused energy + force
            // arithmetic, with no call unless SCREENED.
            for t in 0..len {
                let (dx, dy, dz) = (dxs[t], dys[t], dzs[t]);
                let r2 = dx * dx + dy * dy + dz * dz;
                let inv_r2 = 1.0 / r2;
                let inv_r = inv_r2.sqrt();
                let sr2 = sig2[t] * inv_r2;
                let sr6 = sr2 * sr2 * sr2;
                let e4s6 = eps4[t] * sr6;
                let src2 = sig2[t] * inv_rc2;
                let src6 = src2 * src2 * src2;
                let eshift = (eps4[t] * src6) * (src6 - 1.0);
                let pqq = sc.pref * qqs[t];
                // `coul_f` is the Coulomb part of `-dE/dr · r`, so the total
                // force scale is a single `(coul_f + lj_f) / r²` below.
                let (coul, coul_f) = if SCREENED {
                    let r = r2 * inv_r;
                    let ekr = (-sc.kappa * r).exp();
                    (
                        pqq * (ekr * inv_r) - pqq * sc.cshift,
                        pqq * ekr * (sc.kappa * r + 1.0) * inv_r,
                    )
                } else {
                    (pqq * inv_r - pqq * sc.cshift, pqq * inv_r)
                };
                let lj_f = e4s6 * (sr6 * 12.0 - 6.0);
                e_lj[t] = e4s6 * (sr6 - 1.0) - eshift;
                e_c[t] = coul;
                let f_over_r = (coul_f + lj_f) * inv_r2;
                fx[t] = dx * f_over_r;
                fy[t] = dy * f_over_r;
                fz[t] = dz * f_over_r;
            }
            let mut s_lj = 0.0;
            let mut s_c = 0.0;
            for t in 0..len {
                s_lj += e_lj[t];
                s_c += e_c[t];
            }
            lj_total += s_lj;
            coul_total += s_c;
            // Phase 2: scalar scatter. A run of equal `i` in the list
            // (common: it is home atom outermost) accumulates in registers
            // and hits memory once.
            if let Some(f) = forces.as_deref_mut() {
                let mut t = 0;
                while t < len {
                    let run = runs[t];
                    let i = is[t];
                    let mut acc = Vec3::ZERO;
                    while t < len && runs[t] == run {
                        let fv = Vec3::new(fx[t], fy[t], fz[t]);
                        acc += fv;
                        f[js[t] as usize] -= fv;
                        t += 1;
                    }
                    f[i as usize] += acc;
                }
            }
        }
        (lj_total, coul_total)
    }
}

#[cfg(test)]
impl SoaNonbonded {
    /// The kernel as it shipped before phase 0 screened (PR 17's body,
    /// unedited): every listed pair goes through the arithmetic and the
    /// cutoff is a multiplicative mask. The oracle the screening kernel must
    /// match bit for bit.
    pub(crate) fn eval_masked(
        &self,
        sc: &NbScalars,
        lj: &LjTable,
        pairs: &[(u32, u32)],
        forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        if sc.kappa == 0.0 {
            self.eval_masked_impl::<false>(sc, lj, pairs, forces)
        } else {
            self.eval_masked_impl::<true>(sc, lj, pairs, forces)
        }
    }

    fn eval_masked_impl<const SCREENED: bool>(
        &self,
        sc: &NbScalars,
        lj: &LjTable,
        pairs: &[(u32, u32)],
        mut forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        let xyzq = &self.xyzq[..];
        let [ex, ey, ez] = self.edge;
        let [ix, iy, iz] = self.inv;
        // Hoisted 1/rc² for the in-loop energy-shift recomputation; no
        // division (NbScalars carries 1/rc), and 0 when the cutoff is
        // infinite so the shift vanishes exactly, matching the table.
        let inv_rc2 = sc.inv_rc * sc.inv_rc;
        let mut lj_total = 0.0;
        let mut coul_total = 0.0;
        let mut dxs = [0.0f64; BLOCK];
        let mut dys = [0.0f64; BLOCK];
        let mut dzs = [0.0f64; BLOCK];
        let mut qqs = [0.0f64; BLOCK];
        let mut eps4 = [0.0f64; BLOCK];
        let mut sig2 = [0.0f64; BLOCK];
        let mut e_lj = [0.0f64; BLOCK];
        let mut e_c = [0.0f64; BLOCK];
        let mut fx = [0.0f64; BLOCK];
        let mut fy = [0.0f64; BLOCK];
        let mut fz = [0.0f64; BLOCK];
        for block in pairs.chunks(BLOCK) {
            let len = block.len();
            // Phase 0: gather. The only indexed loads in the kernel.
            for (t, &(i, j)) in block.iter().enumerate() {
                let (i, j) = (i as usize, j as usize);
                let a = xyzq[i];
                let b = xyzq[j];
                dxs[t] = a[0] - b[0];
                dys[t] = a[1] - b[1];
                dzs[t] = a[2] - b[2];
                qqs[t] = a[3] * b[3];
                let mixed = lj.entry(i, j);
                eps4[t] = mixed.eps4;
                sig2[t] = mixed.sigma2;
            }
            // Phase 1: branch-free, index-free fused energy + force
            // arithmetic, with no call unless SCREENED.
            for t in 0..len {
                let mut dx = dxs[t];
                let mut dy = dys[t];
                let mut dz = dzs[t];
                dx -= ex * nearest(dx * ix);
                dy -= ey * nearest(dy * iy);
                dz -= ez * nearest(dz * iz);
                let r2 = dx * dx + dy * dy + dz * dz;
                // Cutoff + overlap handling as a multiplicative mask; the
                // clamp keeps every intermediate finite so `x * 0.0 == 0.0`.
                let mask = ((r2 < sc.rc2) & (r2 >= MIN_R2)) as u8 as f64;
                let r2c = r2.max(MIN_R2);
                let inv_r2 = 1.0 / r2c;
                let inv_r = inv_r2.sqrt();
                let sr2 = sig2[t] * inv_r2;
                let sr6 = sr2 * sr2 * sr2;
                let e4s6 = eps4[t] * sr6;
                let src2 = sig2[t] * inv_rc2;
                let src6 = src2 * src2 * src2;
                let eshift = (eps4[t] * src6) * (src6 - 1.0);
                let pqq = sc.pref * qqs[t];
                // `coul_f` is the Coulomb part of `-dE/dr · r`, so the total
                // force scale is a single `(coul_f + lj_f) / r²` below.
                let (coul, coul_f) = if SCREENED {
                    let r = r2c * inv_r;
                    let ekr = (-sc.kappa * r).exp();
                    (
                        pqq * (ekr * inv_r) - pqq * sc.cshift,
                        pqq * ekr * (sc.kappa * r + 1.0) * inv_r,
                    )
                } else {
                    (pqq * inv_r - pqq * sc.cshift, pqq * inv_r)
                };
                let lj_f = e4s6 * (sr6 * 12.0 - 6.0);
                e_lj[t] = (e4s6 * (sr6 - 1.0) - eshift) * mask;
                e_c[t] = coul * mask;
                let f_over_r = (coul_f + lj_f) * inv_r2 * mask;
                fx[t] = dx * f_over_r;
                fy[t] = dy * f_over_r;
                fz[t] = dz * f_over_r;
            }
            let mut s_lj = 0.0;
            let mut s_c = 0.0;
            for t in 0..len {
                s_lj += e_lj[t];
                s_c += e_c[t];
            }
            lj_total += s_lj;
            coul_total += s_c;
            // Phase 2: scalar scatter. A run of equal `i` (common: the list
            // is home atom outermost) accumulates in registers and hits
            // memory once.
            if let Some(f) = forces.as_deref_mut() {
                let mut t = 0;
                while t < len {
                    let i = block[t].0;
                    let mut acc = Vec3::ZERO;
                    while t < len && block[t].0 == i {
                        let fv = Vec3::new(fx[t], fy[t], fz[t]);
                        acc += fv;
                        f[block[t].1 as usize] -= fv;
                        t += 1;
                    }
                    f[i as usize] += acc;
                }
            }
        }
        (lj_total, coul_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::{chunk_range, EvalContext, NonbondedParams, MIN_CHUNK_PAIRS};
    use crate::models::{alanine_dipeptide, dipeptide_forcefield, solvated_alanine_dipeptide};
    use crate::topology::Atom;
    use rng::Rng;

    fn bits(forces: &[Vec3]) -> Vec<[u64; 3]> {
        forces.iter().map(|f| [f.x.to_bits(), f.y.to_bits(), f.z.to_bits()]).collect()
    }

    /// The oracle over the context's prepared list, materialised as `(min,
    /// max)` pairs, the way `threads` threads walk it: chunk 0 into `forces`,
    /// the others into zeroed buffers, merged in chunk order.
    fn masked(
        ctx: &EvalContext,
        sc: &NbScalars,
        threads: usize,
        mut forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        let pairs: Vec<_> = ctx.neighbors.pairs().iter().collect();
        let lj = ctx.lj.as_ref().unwrap();
        let n_chunks = threads.min(pairs.len() / MIN_CHUNK_PAIRS).max(1);
        let head = &pairs[chunk_range(pairs.len(), n_chunks, 0)];
        let (mut e_lj, mut e_c) = ctx.soa.eval_masked(sc, lj, head, forces.as_deref_mut());
        for c in 1..n_chunks {
            let chunk = &pairs[chunk_range(pairs.len(), n_chunks, c)];
            let mut buf = forces.as_deref().map(|f| vec![Vec3::ZERO; f.len()]);
            let (l, q) = ctx.soa.eval_masked(sc, lj, chunk, buf.as_deref_mut());
            (e_lj, e_c) = (e_lj + l, e_c + q);
            if let (Some(f), Some(buf)) = (forces.as_deref_mut(), &buf) {
                f.iter_mut().zip(buf).for_each(|(f, p)| *f += *p);
            }
        }
        (e_lj, e_c)
    }

    fn pair_bits((l, q): (f64, f64)) -> (u64, u64) {
        (l.to_bits(), q.to_bits())
    }

    /// Screening in the gather and walking the list run by run change which
    /// lanes exist, not one bit of what comes out: both sums and every force
    /// component equal the masked kernel's over the materialised list, on
    /// the systems of `tests/evaluate.rs` (the all-pairs, aliased and
    /// image-shift lists), at the coordinates the list was built on and after
    /// a drift inside the skin (when a third of the list lies beyond the
    /// cutoff, and not the same third), on one to four threads — so with
    /// chunks that start inside a run.
    #[test]
    fn screening_in_the_gather_keeps_every_bit() {
        let systems = [
            ("vacuum", alanine_dipeptide()),
            ("solvated 900", solvated_alanine_dipeptide(900, 3)),
            ("solvated 2881", solvated_alanine_dipeptide(2881, 9)),
        ];
        let mut chunks_cut_runs = 0;
        for (name, mut sys) in systems {
            let mut rng = Rng::seed(11);
            let mut ctx = EvalContext::new();
            for drifted in [false, true] {
                if drifted {
                    for p in &mut sys.state.positions {
                        *p += Vec3::new(rng.f64() - 0.5, rng.f64() - 0.5, rng.f64() - 0.5) * 0.6;
                    }
                }
                for salt in [0.0, 0.5] {
                    let mut ff = dipeptide_forcefield();
                    ff.nonbonded.salt_molar = salt;
                    let sc = NbScalars::new(&ff.nonbonded);
                    assert_eq!(sc.kappa != 0.0, salt != 0.0);
                    // The kernel adds to what the bonded terms left in the
                    // buffer: any realistic non-zero content will do.
                    let mut bonded = vec![Vec3::ZERO; sys.n_atoms()];
                    ff.evaluate(&sys, &mut ctx, Some(&mut bonded), 1);
                    for threads in 1..=4 {
                        let row =
                            format!("{name}, drifted {drifted}, salt {salt}, {threads} thread(s)");
                        assert_eq!(
                            ctx.neighbors.rebuilds(),
                            1,
                            "{row}: the drift stays in the skin"
                        );
                        let list = ctx.neighbors.pairs();
                        let n_chunks = threads.min(list.len() / MIN_CHUNK_PAIRS).max(1);
                        chunks_cut_runs += (1..n_chunks)
                            .map(|c| chunk_range(list.len(), n_chunks, c).start as u32)
                            .filter(|&start| list.runs.iter().all(|&(_, s)| s != start))
                            .count();
                        let mut expected = bonded.clone();
                        let e_expected = masked(&ctx, &sc, threads, Some(&mut expected));
                        let mut got = bonded.clone();
                        let e_got = ctx.nonbonded(&sc, Some(&mut got), threads);
                        assert_eq!(pair_bits(e_got), pair_bits(e_expected), "{row}");
                        assert_eq!(bits(&got), bits(&expected), "{row}");
                        // Without a buffer: the same sums, from both.
                        assert_eq!(pair_bits(ctx.nonbonded(&sc, None, threads)), pair_bits(e_got));
                        assert_eq!(pair_bits(masked(&ctx, &sc, threads, None)), pair_bits(e_got));
                    }
                }
            }
            if name != "vacuum" {
                let pos = &sys.state.positions;
                let pairs = ctx.neighbors.pairs();
                let beyond = pairs
                    .iter()
                    .filter(|&(i, j)| {
                        sys.pbc.min_image(pos[i as usize], pos[j as usize]).norm() >= 9.0
                    })
                    .count();
                let share = beyond as f64 / pairs.len() as f64;
                assert!(
                    (0.3..0.45).contains(&share),
                    "{name}: {share} of the list is screened out"
                );
            }
        }
        assert!(chunks_cut_runs > 0, "no chunk started inside a run");
    }

    /// A hand-made list with what the cell search produces and the systems
    /// above may not: home 5 with partners 9, 3 and 20 — an out-of-range
    /// `(3, 5)` between `(5, 9)` and `(5, 20)`, two runs of `i = 5` for the
    /// scatter, which must stay two sums — a coincident pair under the
    /// overlap floor inside a run, a run that is screened out whole, a block
    /// boundary inside a run, homes that recur after other homes and sit
    /// above or below their partners, and a chunk cut anywhere.
    #[test]
    fn a_screened_out_pair_still_ends_a_run() {
        rng::check(64, |rng| {
            let n = 160;
            let atoms: Vec<Atom> = (0..n)
                .map(|k| Atom {
                    mass: 12.0,
                    charge: [0.4, -0.3, 0.1][k % 3],
                    lj_epsilon: 0.1 + 0.01 * (k % 2) as f64,
                    lj_sigma: 3.2,
                })
                .collect();
            // A cloud 8 Å across under a 6 Å cutoff: a pair is in range about
            // as often as not.
            let mut positions: Vec<Vec3> =
                (0..n).map(|_| Vec3::new(rng.f64(), rng.f64(), rng.f64()) * 8.0).collect();
            positions[3] = positions[5] + Vec3::new(30.0, 0.0, 0.0);
            positions[9] = positions[5] + Vec3::new(3.1, 0.2, -0.4);
            positions[20] = positions[5] + Vec3::new(-0.3, 3.4, 0.5);
            positions[11] = positions[10]; // r² = 0 < MIN_R2
            positions[40] = Vec3::new(500.0, 500.0, 500.0); // in range of nobody

            // `(home, partner)`, as the cell search hands them out.
            let mut hand = vec![(5, 9), (5, 3), (5, 20), (10, 11), (10, 12), (10, 13)];
            hand.extend((41..60).map(|j| (40, j)));
            // One long run across the first block boundary, then noise.
            hand.extend((61..160).map(|j| (60, j)));
            hand.extend((0..200).map(|_| {
                let (a, b) = (rng.below(n as u64) as u32, rng.below(n as u64 - 1) as u32);
                (a, if b < a { b } else { b + 1 })
            }));
            let mut list = PairList::default();
            {
                let mut push = list.appender();
                hand.iter().for_each(|&(home, partner)| push(home, partner));
            }
            let pairs: Vec<_> = list.iter().collect();
            assert_eq!(pairs[..3], [(5, 9), (3, 5), (5, 20)]);
            assert_eq!(list.runs[..4], [(5, 0), (10, 3), (40, 6), (60, 25)]);
            let salt = if rng.below(2) == 0 { 0.0 } else { 0.5 };
            let sc = NbScalars::new(&NonbondedParams {
                cutoff: 6.0,
                dielectric: 4.0,
                salt_molar: salt,
                ph: 7.0,
            });
            let lj = LjTable::build(&atoms);
            let charges: Vec<f64> = atoms.iter().map(|a| a.charge).collect();
            let mut soa = SoaNonbonded::default();
            soa.sync_atoms(&positions, &charges, &PbcBox::VACUUM);

            // The whole list, and two chunks cut at any pair.
            let cut = rng.range(1..pairs.len());
            let mut got = vec![Vec3::ZERO; n];
            for range in [0..cut, cut..pairs.len(), 0..pairs.len()] {
                let mut expected = vec![Vec3::ZERO; n];
                let e_expected =
                    soa.eval_masked(&sc, &lj, &pairs[range.clone()], Some(&mut expected));
                got.fill(Vec3::ZERO);
                let e_got = soa.eval(&sc, &lj, &list, range.clone(), Some(&mut got));
                assert_eq!(pair_bits(e_got), pair_bits(e_expected), "{range:?}");
                assert_eq!(bits(&got), bits(&expected), "{range:?}");
            }
            // The special cases did what they are there for.
            assert!(got[5].norm() > 0.0, "(5, 9) and (5, 20) are in range");
            assert_eq!(got[40], Vec3::ZERO, "a run screened out whole");
            assert!(got.iter().all(|f| f.is_finite()), "the coincident pair is dropped");

            // A non-finite coordinate is screened out like a far pair (the
            // mask used to turn it into NaN forces): nothing here panics or
            // spreads it, and the segment fails on the coordinate itself
            // (`sander::tests::a_nan_coordinate_fails_the_segment`).
            positions[70].y = f64::NAN;
            soa.sync_atoms(&positions, &charges, &PbcBox::VACUUM);
            got.fill(Vec3::ZERO);
            let (e_lj, e_c) = soa.eval(&sc, &lj, &list, 0..list.len(), Some(&mut got));
            assert!(e_lj.is_finite() && e_c.is_finite() && got.iter().all(|f| f.is_finite()));
        });
    }
}
