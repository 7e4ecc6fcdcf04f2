//! Structure-of-arrays nonbonded kernel — the one the force field runs.
//!
//! A pair-at-a-time kernel (the oracle, `nonbonded::pair_energy_force`)
//! walks `Vec<Vec3>` positions, mixes LJ parameters per pair and branches
//! on cutoff, LJ activity and charge products. This module flattens
//! everything the inner loop touches into parallel `f64` arrays and splits
//! the loop into three phases per block of pairs:
//!
//! - **Phase 0 (gather)**: indexed loads only. Atom data is packed as one
//!   `[x, y, z, q]` quad per atom so a random neighbor access touches a
//!   single cache line instead of four distinct lanes; the phase writes
//!   position deltas and charge products into fixed-size block buffers.
//! - **Phase 1 (arithmetic)**: branch-free, index-free math over the block
//!   buffers. Because no load in this loop depends on a runtime index, LLVM
//!   auto-vectorizes it; measured on the seed layout, fusing the gathers
//!   into this loop instead *defeated* vectorization and ran slower than
//!   a pair-at-a-time loop. Cutoff and overlap handling are multiplicative masks,
//!   the minimum image is multiply + `round` (no division by the box), the
//!   only division per pair is `1/r²` (with `1/r = sqrt(1/r²)` instead of a
//!   second divide), products `a·b + c` use `mul_add` so FMA units are used
//!   (rustc does not contract float expressions on its own), and `exp` is
//!   only present when the potential is actually screened (`kappa > 0`,
//!   dispatched once per call via a const generic). The LJ energy shift is
//!   recomputed from `eps4`/`sig2` and the hoisted `1/rc²` rather than
//!   streamed as a third parameter lane: five multiplies per pair are
//!   cheaper than eight more bytes of memory traffic per pair.
//! - **Phase 2 (scatter)**: scalar indexed accumulation, kept out of phase
//!   1 so it cannot inhibit vectorization. Pairs arrive sorted by their
//!   first index, so the scatter accumulates runs of equal `i` in registers
//!   and touches `forces[i]` once per run — roughly halving the indexed
//!   read-modify-writes.
//!
//! Per-atom quads are refreshed every evaluation (positions drift each MD
//! step); per-pair lanes (`pi`/`pj`/`eps4`/`sig2`) only when the neighbor
//! list or the LJ table is rebuilt. Box constants store edge lengths and
//! their precomputed reciprocals, with vacuum encoded as zeros so the
//! minimum-image shift vanishes without a branch. See DESIGN.md §10.

use super::nonbonded::{LjTable, NbScalars};
use crate::system::PbcBox;
use crate::vec3::Vec3;
use std::ops::Range;

/// Pairs processed per block. The nine `f64` block buffers total 9 KiB —
/// comfortably L1-resident next to the gather traffic — and the block is
/// long enough to amortize the scalar scatter loop; 128 measured faster
/// than 32/64/256 on AVX-512 hardware.
const BLOCK: usize = 128;

/// Squared-distance floor mirroring the oracle kernel's overlap guard
/// (`r2 < 1e-12` contributes nothing); clamping instead of branching keeps
/// the arithmetic finite so the mask multiply yields exact zeros.
const MIN_R2: f64 = 1e-12;

/// The flattened view. Owned by `EvalContext`; buffers are reused across
/// evaluations so steady-state MD steps do not allocate.
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaNonbonded {
    /// Per-atom packed `[x, y, z, q]` quads: one 32-byte cache-line burst
    /// per gathered neighbor instead of four scattered lane reads.
    xyzq: Vec<[f64; 4]>,
    // Per-pair lanes (gathered once per neighbor-list rebuild).
    pi: Vec<u32>,
    pj: Vec<u32>,
    eps4: Vec<f64>,
    sig2: Vec<f64>,
    // Box constants (zeros in vacuum — branch-free minimum image).
    edge: [f64; 3],
    inv: [f64; 3],
}

impl SoaNonbonded {
    pub(crate) fn n_pairs(&self) -> usize {
        self.pi.len()
    }

    /// Regather the pair lanes from a freshly built neighbor list: indices
    /// plus the mixed LJ constants per pair, so the kernel never touches the
    /// type table.
    pub(crate) fn sync_pairs(&mut self, pairs: &[(u32, u32)], table: &LjTable) {
        self.pi.clear();
        self.pj.clear();
        self.eps4.clear();
        self.sig2.clear();
        self.pi.reserve(pairs.len());
        self.pj.reserve(pairs.len());
        self.eps4.reserve(pairs.len());
        self.sig2.reserve(pairs.len());
        for &(i, j) in pairs {
            let e = table.entry(i as usize, j as usize);
            self.pi.push(i);
            self.pj.push(j);
            self.eps4.push(e.eps4);
            self.sig2.push(e.sigma2);
        }
    }

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

    /// Evaluate the pairs in `range`, returning `(lj, coulomb)` energy sums
    /// and (optionally) scattering forces into `forces` (length = n_atoms).
    ///
    /// Screened and unscreened Coulomb are monomorphized separately so the
    /// common `kappa == 0` case contains no `exp` at all; at `kappa == 0`
    /// the screened expressions reduce to the unscreened ones exactly
    /// (`exp(0) = 1` multiplies through), so the dispatch is seamless.
    pub(crate) fn eval(
        &self,
        sc: &NbScalars,
        range: Range<usize>,
        forces: Option<&mut [Vec3]>,
    ) -> (f64, f64) {
        if sc.kappa == 0.0 {
            self.eval_impl::<false>(sc, range, forces)
        } else {
            self.eval_impl::<true>(sc, range, forces)
        }
    }

    fn eval_impl<const SCREENED: bool>(
        &self,
        sc: &NbScalars,
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
        let mut e_lj = [0.0f64; BLOCK];
        let mut e_c = [0.0f64; BLOCK];
        let mut fx = [0.0f64; BLOCK];
        let mut fy = [0.0f64; BLOCK];
        let mut fz = [0.0f64; BLOCK];
        let mut k = range.start;
        while k < range.end {
            let len = BLOCK.min(range.end - k);
            // One bounds check per block lane, not per pair.
            let pi = &self.pi[k..k + len];
            let pj = &self.pj[k..k + len];
            let eps4 = &self.eps4[k..k + len];
            let sig2 = &self.sig2[k..k + len];
            // Phase 0: gather. The only indexed loads in the kernel.
            for t in 0..len {
                let a = xyzq[pi[t] as usize];
                let b = xyzq[pj[t] as usize];
                dxs[t] = a[0] - b[0];
                dys[t] = a[1] - b[1];
                dzs[t] = a[2] - b[2];
                qqs[t] = a[3] * b[3];
            }
            // Phase 1: branch-free, index-free fused energy + force
            // arithmetic — the loop LLVM vectorizes.
            for t in 0..len {
                let mut dx = dxs[t];
                let mut dy = dys[t];
                let mut dz = dzs[t];
                dx = (-ex).mul_add((dx * ix).round(), dx);
                dy = (-ey).mul_add((dy * iy).round(), dy);
                dz = (-ez).mul_add((dz * iz).round(), dz);
                let r2 = dz.mul_add(dz, dy.mul_add(dy, dx * dx));
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
                        pqq.mul_add(ekr * inv_r, -(pqq * sc.cshift)),
                        pqq * ekr * sc.kappa.mul_add(r, 1.0) * inv_r,
                    )
                } else {
                    (pqq.mul_add(inv_r, -(pqq * sc.cshift)), pqq * inv_r)
                };
                let lj_f = e4s6 * sr6.mul_add(12.0, -6.0);
                e_lj[t] = e4s6.mul_add(sr6 - 1.0, -eshift) * mask;
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
            // Phase 2: scalar scatter. Pairs are sorted by `i`, so runs of
            // equal `i` accumulate in registers and hit memory once.
            if let Some(f) = forces.as_deref_mut() {
                let mut t = 0;
                while t < len {
                    let i = pi[t];
                    let mut acc = Vec3::ZERO;
                    while t < len && pi[t] == i {
                        let fv = Vec3::new(fx[t], fy[t], fz[t]);
                        acc += fv;
                        f[pj[t] as usize] -= fv;
                        t += 1;
                    }
                    f[i as usize] += acc;
                }
            }
            k += len;
        }
        (lj_total, coul_total)
    }
}
