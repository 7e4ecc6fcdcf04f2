//! Blocked nonbonded kernel — the one the force field runs.
//!
//! A pair-at-a-time kernel (the oracle, `nonbonded::pair_energy_force`)
//! walks `Vec<Vec3>` positions, mixes LJ parameters per pair and branches
//! on cutoff, LJ activity and charge products. This module walks the
//! neighbor list in blocks of pairs and splits the loop into three phases
//! per block, the middle one over parallel `f64` block buffers:
//!
//! - **Phase 0 (gather)**: indexed loads only. Atom data is packed as one
//!   `[x, y, z, q]` quad per atom so a random neighbor access touches a
//!   single cache line instead of four distinct lanes; the mixed LJ
//!   constants come out of the type table (a handful of entries, resident in
//!   L1); the phase writes position deltas, charge products and the two LJ
//!   constants into fixed-size block buffers. Nothing is stored per pair
//!   beyond the neighbor list itself: 24 bytes of index and parameter lanes
//!   per pair (5.7 MB per context at 2881 atoms, three times the list) cost
//!   more resident memory than the ~1 ns per pair they saved was worth.
//! - **Phase 1 (arithmetic)**: branch-free, index-free math over the block
//!   buffers and, when the potential is unscreened, free of calls — which is
//!   what lets LLVM vectorise the loop for the target everyone builds:
//!   baseline x86-64 (SSE2, two lanes), no `RUSTFLAGS`. On that target
//!   `f64`'s fused multiply-add, `round` and `floor` are calls into libm
//!   (FMA and `roundpd` are not in the baseline), and a vector loop unpacks
//!   every lane to make them; so products are written `a * b + c`, and the
//!   minimum image is multiply + `system::nearest` (two additions; on a tie
//!   it picks the other of two equidistant images, `L/2` away, which the
//!   cutoff mask drops either way). Both also make the result the same bits
//!   whether or not the host has FMA. Measured on the seed layout, fusing
//!   the gathers into this loop instead *defeated* vectorization and ran
//!   slower than a pair-at-a-time loop. Cutoff and overlap handling are
//!   multiplicative masks, the only division per pair is `1/r²` (with
//!   `1/r = sqrt(1/r²)` instead of a second divide), and `exp` — a libm call
//!   per pair — is only present when the potential is screened (`kappa > 0`,
//!   dispatched once per call via a const generic). The LJ energy shift is
//!   recomputed from `eps4`/`sig2` and the hoisted `1/rc²` rather than kept
//!   as a third constant per table entry and block buffer.
//! - **Phase 2 (scatter)**: scalar indexed accumulation, kept out of phase
//!   1 so it cannot inhibit vectorization. The cell search emits pairs home
//!   atom outermost, so the list is long runs of one home atom — as `i`
//!   whenever its partner has the larger index. The scatter accumulates a
//!   run of equal `i` in registers and touches `forces[i]` once per run; it
//!   is correct for any order.
//!
//! Per-atom quads are refreshed every evaluation (positions drift each MD
//! step). Box constants store edge lengths and their precomputed
//! reciprocals, with vacuum encoded as zeros so the minimum-image shift
//! vanishes without a branch. DESIGN.md §10 has the
//! `objdump` line that shows what the release binary's loop contains.

use super::nonbonded::{LjTable, NbScalars};
use crate::system::{nearest, PbcBox};
use crate::vec3::Vec3;

/// Pairs processed per block. The eleven `f64` block buffers total 11 KiB —
/// comfortably L1-resident next to the gather traffic — and the block is
/// long enough to amortize the scalar scatter loop. (128 was chosen over
/// 32/64/256 on a `target-cpu=native` build; not re-measured on the default
/// target.)
const BLOCK: usize = 128;

/// Squared-distance floor mirroring the oracle kernel's overlap guard
/// (`r2 < 1e-12` contributes nothing); clamping instead of branching keeps
/// the arithmetic finite so the mask multiply yields exact zeros.
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

    /// Evaluate `pairs` under the mixing table `lj`, returning `(lj, coulomb)`
    /// energy sums and (optionally) scattering forces into `forces` (length
    /// = n_atoms).
    ///
    /// Screened and unscreened Coulomb are monomorphized separately so the
    /// common `kappa == 0` case contains no `exp` at all; at `kappa == 0`
    /// the screened expressions reduce to the unscreened ones exactly
    /// (`exp(0) = 1` multiplies through), so the dispatch is seamless.
    pub(crate) fn eval(
        &self,
        sc: &NbScalars,
        lj: &LjTable,
        pairs: &[(u32, u32)],
        forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        if sc.kappa == 0.0 {
            self.eval_impl::<false>(sc, lj, pairs, forces)
        } else {
            self.eval_impl::<true>(sc, lj, pairs, forces)
        }
    }

    fn eval_impl<const SCREENED: bool>(
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
