//! Per-store write-ahead log: length-prefixed, CRC-32C-checksummed records,
//! group commit with a modeled fsync cost, rotation on memstore flush and
//! truncation once the flush is durable.
//!
//! The log is a sequence of *segments* (simulated as in-memory byte
//! vectors — the durable medium of this reproduction, exactly as the DFS
//! layer simulates block placement without real disks). Appends stage
//! into a volatile `pending` buffer first; a *sync* moves the whole
//! buffer into the active segment in one step, which is what group
//! commit amortizes: any number of staged records ride one fsync, and
//! only synced bytes survive a crash.
//!
//! ## Frame format
//!
//! ```text
//! ┌────────────┬────────────┬─────────────────────────────────────────┐
//! │ len: u32LE │ crc: u32LE │ payload (len bytes)                     │
//! └────────────┴────────────┴─────────────────────────────────────────┘
//! payload := seq u64LE | ts u64LE | row_len u32LE | row
//!          | qual_len u32LE | qual | tag u8 (0 = delete, 1 = put)
//!          | [val_len u32LE | val]            (present only when tag = 1)
//! ```
//!
//! `crc` is CRC-32C (Castagnoli) over the payload — HBase's own WAL and
//! HFile checksum default, because x86-64 computes it in one instruction
//! per 8 bytes (see [`Crc32c`]). Replay walks segments in order and stops
//! at the first frame that is incomplete or fails its checksum: in the
//! last segment that is the expected torn tail of a crash (truncated
//! silently, never a panic); in an earlier segment it is mid-log damage,
//! surfaced to the caller as a typed corruption.
//!
//! ## The one `unsafe`
//!
//! The checksum kernels hold this crate's only `unsafe` block: the call
//! from `update_with` into one of two `#[target_feature]` functions of
//! otherwise safe code. `update_fold` enables AVX-512F and VPCLMULQDQ;
//! `update_sse42` enables SSE4.2. Their one invariant — the CPU executes
//! the features the called function enables — is established at run time,
//! on every call, by `Kernel::supported`, which checks
//! `is_x86_feature_detected!("avx512f")` and `("vpclmulqdq")` before it
//! picks the fold kernel and `("sse4.2")` before it picks the three-lane
//! one. Everywhere else (and in the tests, as the reference) the portable
//! slicing-by-8 kernel runs.
//!
//! The fold kernel carries four 512-bit accumulators 256 bytes per step
//! with carry-less multiplies, by constants `const`-evaluated from the
//! polynomial, and finishes its last 16 bytes and the tail on `crc32`. The
//! three-lane kernel, for CPUs without VPCLMULQDQ, runs whole stripes of
//! `3 × LANE` bytes as three independent `crc32` chains joined by four
//! `const`-evaluated shift tables. Nothing is initialized at run time.
//! A block checksum hands its key arena — already the stored key-side
//! serialization — straight to [`Crc32c::update`], which folds it in
//! place, and stages only the per-cell value records through
//! `StagedCrc32c`, which gathers them into whole kernel runs first.

use crate::error::{HStoreError, Result};
use crate::types::{InternalKey, Qualifier, RowKey, Timestamp};
use bytes::Bytes;
use simcore::SimDuration;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m512i;

/// Reflected CRC-32C (Castagnoli) polynomial.
const CASTAGNOLI: u32 = 0x82F6_3B78;

// Slicing-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
// table; `TABLES[k][b]` advances byte `b` through `k` additional zero
// bytes, letting the portable loop fold 8 input bytes per iteration.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CASTAGNOLI ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The portable kernel: slicing-by-8 over [`CRC_TABLES`]. The only path
/// off x86-64 (or without SSE4.2), and the reference the tests hold the
/// hardware kernel to.
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Bytes per lane of the hardware kernel, which folds a *stripe* of
/// `3 × LANE` bytes as three independent chains. Picked by a sweep over
/// 16 KiB blocks (CHANGES.md, PR 25): shorter lanes pay the join more
/// often, longer ones leave more of a staged run to the one-chain tail.
const LANE: usize = 512;

/// `SHIFT[k][b]` is the raw state `b << 8k` advanced through [`LANE`] zero
/// bytes. Advancing a raw state through zeros is linear over GF(2), so
/// [`shift`] advances any state by XOR-ing one entry per state byte; each
/// entry is in turn the XOR of the advanced single-bit states it holds,
/// which keeps the build to 32 byte-at-a-time walks over `CRC_TABLES[0]`.
#[cfg(target_arch = "x86_64")]
const SHIFT: [[u32; 256]; 4] = {
    let mut bits = [0u32; 32];
    let mut i = 0;
    while i < 32 {
        let mut crc = 1u32 << i;
        let mut n = 0;
        while n < LANE {
            crc = CRC_TABLES[0][(crc & 0xFF) as usize] ^ (crc >> 8);
            n += 1;
        }
        bits[i] = crc;
        i += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if (b >> bit) & 1 != 0 {
                    tables[k][b] ^= bits[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    tables
};

/// The raw state `crc` advanced through [`LANE`] zero bytes.
#[cfg(target_arch = "x86_64")]
#[inline]
fn shift(crc: u32) -> u32 {
    SHIFT[0][(crc & 0xFF) as usize]
        ^ SHIFT[1][((crc >> 8) & 0xFF) as usize]
        ^ SHIFT[2][((crc >> 16) & 0xFF) as usize]
        ^ SHIFT[3][(crc >> 24) as usize]
}

/// The hardware kernel: the SSE4.2 `crc32` instruction computes exactly
/// this polynomial, folding 8, 4, 2 or 1 bytes per instruction.
///
/// One chain of `crc32` is latency-bound (3 cycles per 8 bytes, with room
/// for three in flight), so whole stripes run as three chains over
/// adjacent lanes — the first from `crc`, the other two from zero — and
/// are joined by the identity `crc(s, A‖B) = shift(crc(s, A)) ^ crc(0, B)`.
/// The tail keeps the one-chain 8/4/2/1 loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u16, _mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};
    let (stripes, tail) = data.as_chunks::<{ 3 * LANE }>();
    let mut crc = crc;
    for stripe in stripes {
        let (a, bc) = stripe.as_chunks::<8>().0.split_at(LANE / 8);
        let (b, c) = bc.split_at(LANE / 8);
        let (mut x, mut y, mut z) = (u64::from(crc), 0, 0);
        for ((p, q), r) in a.iter().zip(b).zip(c) {
            x = _mm_crc32_u64(x, u64::from_le_bytes(*p));
            y = _mm_crc32_u64(y, u64::from_le_bytes(*q));
            z = _mm_crc32_u64(z, u64::from_le_bytes(*r));
        }
        crc = shift(shift(x as u32) ^ y as u32) ^ z as u32;
    }
    let (words, mut rest) = tail.as_chunks::<8>();
    let mut wide = u64::from(crc);
    for word in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*word));
    }
    let mut crc = wide as u32;
    if let Some((head, tail)) = rest.split_first_chunk::<4>() {
        crc = _mm_crc32_u32(crc, u32::from_le_bytes(*head));
        rest = tail;
    }
    if let Some((head, tail)) = rest.split_first_chunk::<2>() {
        crc = _mm_crc32_u16(crc, u16::from_le_bytes(*head));
        rest = tail;
    }
    if let [b] = rest {
        crc = _mm_crc32_u8(crc, *b);
    }
    crc
}

/// `x^n mod P` for the CRC-32C polynomial `P`, reflected as the raw state
/// holds it (bit 31 is `x^0`): `n / 8` byte steps through `CRC_TABLES[0]`,
/// then single bit steps, each a multiply by `x` — the walk [`SHIFT`]'s
/// build makes, from the state that stands for `1`.
#[cfg(target_arch = "x86_64")]
const fn x_pow_mod(n: usize) -> u32 {
    let mut r = 1u32 << 31;
    let mut i = 0;
    while i < n / 8 {
        r = CRC_TABLES[0][(r & 0xFF) as usize] ^ (r >> 8);
        i += 1;
    }
    let mut i = 0;
    while i < n % 8 {
        r = if r & 1 != 0 { CASTAGNOLI ^ (r >> 1) } else { r >> 1 };
        i += 1;
    }
    r
}

/// Bytes per step of the fold kernel: four 64-byte accumulators.
const FOLD: usize = 256;

/// The two multipliers that carry a 16-byte lane `d` bytes forward, for
/// its low and its high 8 bytes. In the reflected order the low 8 bytes
/// hold the higher powers, so a lane `A = lo·x^64 + hi` moved `8d` bits
/// along is `lo·x^(8d+64) + hi·x^(8d)`, each factor reduced mod `P` to 32
/// bits. A carry-less product of two reflected operands comes out one bit
/// short (`·x`), and a 32-bit factor in the low half of its 64-bit word
/// reads as `·x^32`: hence the `− 33`.
#[cfg(target_arch = "x86_64")]
const fn fold_by(d: usize) -> [u64; 2] {
    [x_pow_mod(8 * d + 64 - 33) as u64, x_pow_mod(8 * d - 33) as u64]
}

/// Carries a lane one [`FOLD`] step forward.
#[cfg(target_arch = "x86_64")]
const FOLD_STEP: [u64; 2] = fold_by(FOLD);
/// Carry lanes forward by 192, 128, 64, 48, 32 and 16 bytes: the
/// reduction of four accumulators to one, and of one to its last lane.
#[cfg(target_arch = "x86_64")]
const FOLD_TAIL: [[u64; 2]; 6] =
    [fold_by(192), fold_by(128), fold_by(64), fold_by(48), fold_by(32), fold_by(16)];

/// Four lanes' multiplier pairs as one vector, lane 0 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn lanes(k: [[u64; 2]; 4]) -> __m512i {
    let q = |i: usize| k.as_flattened()[i] as i64;
    std::arch::x86_64::_mm512_setr_epi64(q(0), q(1), q(2), q(3), q(4), q(5), q(6), q(7))
}

/// An accumulator's four 16-byte lanes, each carried forward by its own
/// pair of multipliers in `k` (see [`lanes`]), XOR-ed into `y`: two
/// carry-less multiplies and one three-way XOR.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq")]
#[inline]
fn fold(x: __m512i, k: __m512i, y: __m512i) -> __m512i {
    use std::arch::x86_64::{_mm512_clmulepi64_epi128, _mm512_ternarylogic_epi64};
    let lo = _mm512_clmulepi64_epi128::<0x00>(x, k);
    let hi = _mm512_clmulepi64_epi128::<0x11>(x, k);
    _mm512_ternarylogic_epi64::<0x96>(lo, hi, y)
}

/// The fold kernel: `vpclmulqdq` on 512-bit vectors, for CPUs with
/// AVX-512F and VPCLMULQDQ.
///
/// A CRC depends on the message only through its polynomial mod `P`, so
/// any 16 bytes of it may be replaced by a product of the same residue
/// further along (see [`fold_by`]). Four accumulators of four 16-byte
/// lanes take the first [`FOLD`] bytes, with the running state XOR-ed
/// into the first four (`crc(s, M)` is `crc(0, M)` with `s` added to `M`'s
/// first 32 bits). Each further step carries every lane [`FOLD`] bytes
/// forward onto that step's bytes: sixteen independent multiply chains.
/// Then the accumulators fold onto the last, whole 64-byte lines fold into
/// it, and its lanes fold onto its last 16 bytes: a reduction of about
/// fifteen dependent instructions, paid once per call. Those 16 bytes and
/// the tail under 64 bytes finish on `crc32` from state 0, since zeros in
/// front of a message leave a zero state's CRC unchanged. Runs shorter
/// than [`FOLD`] go to [`update_sse42`]. Vectors are built from `u64`
/// array reads, which compile to single 64-byte vector loads.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn update_fold(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_xor_si256, _mm512_castsi512_si256,
        _mm512_extracti64x4_epi64, _mm512_maskz_mov_epi64, _mm512_setr_epi64, _mm_crc32_u64,
        _mm_cvtsi128_si64, _mm_extract_epi64, _mm_xor_si128,
    };
    let (steps, tail) = data.as_chunks::<FOLD>();
    let Some((first, steps)) = steps.split_first() else {
        return update_sse42(crc, data);
    };
    // One 64-byte line as a vector, `head` XOR-ed into its first 8 bytes.
    let load = |line: &[u8; 64], head: u64| {
        let (words, _) = line.as_chunks::<8>();
        let q = |i: usize| i64::from_le_bytes(words[i]);
        _mm512_setr_epi64(q(0) ^ head as i64, q(1), q(2), q(3), q(4), q(5), q(6), q(7))
    };
    let (lines, _) = first.as_chunks::<64>();
    let mut acc = [
        load(&lines[0], u64::from(crc)),
        load(&lines[1], 0),
        load(&lines[2], 0),
        load(&lines[3], 0),
    ];
    let step_k = lanes([FOLD_STEP; 4]);
    for step in steps {
        let (lines, _) = step.as_chunks::<64>();
        for (acc, line) in acc.iter_mut().zip(lines) {
            *acc = fold(*acc, step_k, load(line, 0));
        }
    }
    let [k192, k128, k64, k48, k32, k16] = FOLD_TAIL;
    let line_k = lanes([k64; 4]);
    let mut last = fold(
        acc[0],
        lanes([k192; 4]),
        fold(acc[1], lanes([k128; 4]), fold(acc[2], line_k, acc[3])),
    );
    let (lines, tail) = tail.as_chunks::<64>();
    for line in lines {
        last = fold(last, line_k, load(line, 0));
    }
    // Lanes 0–2 carried onto lane 3, which passes through; then the four
    // lanes XOR-ed into one.
    let v = fold(last, lanes([k48, k32, k16, [0; 2]]), _mm512_maskz_mov_epi64(0xC0, last));
    let v = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
    let v = _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    let (lo, hi) = (_mm_cvtsi128_si64(v) as u64, _mm_extract_epi64::<1>(v) as u64);
    update_sse42(_mm_crc32_u64(_mm_crc32_u64(0, lo), hi) as u32, tail)
}

/// The kernels [`update`] chooses from, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// [`update_fold`]: AVX-512F and VPCLMULQDQ.
    Fold,
    /// [`update_sse42`]: SSE4.2.
    Sse42,
    /// [`update_portable`]: any CPU.
    Portable,
}

impl Kernel {
    /// The fastest kernel no faster than `self` that this CPU executes, by
    /// run-time detection (`std` caches the CPUID answer, so each check is
    /// a load and a test).
    #[inline]
    fn supported(self) -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if self == Kernel::Fold
                && std::is_x86_feature_detected!("avx512f")
                && std::is_x86_feature_detected!("vpclmulqdq")
            {
                return Kernel::Fold;
            }
            if self != Kernel::Portable && std::is_x86_feature_detected!("sse4.2") {
                return Kernel::Sse42;
            }
        }
        Kernel::Portable
    }
}

/// Folds `data` into the raw (pre-inversion) state `crc` with the fastest
/// kernel this CPU has. Every kernel computes the same function, so which
/// one ran is unobservable in the result.
#[inline]
fn update(crc: u32, data: &[u8]) -> u32 {
    update_with(Kernel::Fold, crc, data)
}

/// [`update`] on `kernel`, or on the next slower one where this CPU lacks
/// its features (the tests hold each kernel to the portable one this way).
#[inline]
fn update_with(kernel: Kernel, crc: u32, data: &[u8]) -> u32 {
    let kernel = kernel.supported();
    #[cfg(target_arch = "x86_64")]
    if kernel != Kernel::Portable {
        // SAFETY: both hardware kernels are safe code whose only
        // requirement is that the CPU executes the target features they
        // enable, and `Kernel::supported` has just established those by
        // run-time detection: it returns `Fold` only when the CPU reports
        // AVX-512F and VPCLMULQDQ, what `update_fold` enables (`avx512f`
        // implies SSE4.2, which its call into `update_sse42` needs), and
        // `Sse42` only when it reports SSE4.2.
        return unsafe {
            match kernel {
                Kernel::Fold => update_fold(crc, data),
                _ => update_sse42(crc, data),
            }
        };
    }
    update_portable(crc, data)
}

/// Incremental CRC-32C (Castagnoli, reflected polynomial `0x82F63B78`).
///
/// The polynomial is HBase's own HFile and WAL checksum default, chosen
/// there for the same reason as here: x86-64 computes it in hardware, one
/// `crc32` instruction per 8 bytes, so a checksummed disk read costs a
/// fraction of what a table-driven CRC-32/IEEE does. Hand rolled: the
/// workspace vendors no checksum crate, and a page of const-eval plus one
/// intrinsic loop beats a dependency. The streaming API folds a record
/// given in parts — CRC over a concatenation equals the CRC of streaming
/// the parts — and is what a block checksum folds its key arena with
/// before `StagedCrc32c` continues the state once per full stage.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c(u32);

impl Crc32c {
    /// A fresh checksum state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32c(!0u32)
    }

    /// Folds `data` into the checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    /// The finished checksum.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32C of `data` (the name predates the polynomial: it is
/// the crate's one checksum, whichever polynomial that is).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
    crc.update(data);
    crc.finish()
}

/// Bytes [`StagedCrc32c`] gathers per kernel call: six [`FOLD`] steps and
/// whole three-lane stripes, so a full stage runs either hardware kernel
/// with no tail. A sweep of 512–8 192 bytes over 16 KiB blocks read the
/// same within the host's noise (CHANGES.md), so the length stayed.
pub(crate) const STAGE: usize = 3 * LANE;

/// CRC-32C of a record that arrives as many small pieces (a block's
/// per-cell value records): the pieces are copied into a stack buffer and
/// the kernel runs once per [`STAGE`] bytes — at full kernel speed —
/// instead of once per piece. Same value as [`Crc32c`] fed the same pieces.
pub(crate) struct StagedCrc32c {
    crc: Crc32c,
    len: usize,
    buf: [u8; STAGE],
}

impl StagedCrc32c {
    /// A checksum that continues `crc`'s state, with an empty stage.
    pub(crate) fn new(crc: Crc32c) -> Self {
        StagedCrc32c { crc, len: 0, buf: [0; STAGE] }
    }

    /// Appends `bytes` to the checksummed run.
    #[inline]
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end >= STAGE {
            return self.spill(bytes);
        }
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    /// [`StagedCrc32c::push`] of a piece that fills the stage: the kernel
    /// folds each full stage, and what is left starts the next one. Out of
    /// line so every inlined `push` stays a compare and a copy (inlined,
    /// the kernel dispatch at each of a cell's pushes made verify slower
    /// than the per-field calls it replaces).
    #[inline(never)]
    fn spill(&mut self, mut bytes: &[u8]) {
        while self.len + bytes.len() >= STAGE {
            let (head, rest) = bytes.split_at(STAGE - self.len);
            self.buf[self.len..].copy_from_slice(head);
            self.crc.update(&self.buf);
            self.len = 0;
            bytes = rest;
        }
        self.buf[..bytes.len()].copy_from_slice(bytes);
        self.len = bytes.len();
    }

    /// The finished checksum of everything pushed.
    pub(crate) fn finish(mut self) -> u32 {
        self.crc.update(&self.buf[..self.len]);
        self.crc.finish()
    }
}

/// Frame header size: `len: u32` + `crc: u32`.
pub const FRAME_HEADER_BYTES: u64 = 8;

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Sync once at least this many bytes are staged. `0` syncs after
    /// every append (HBase's default durability: a write is acknowledged
    /// only once its WAL entry is on disk); larger values batch appends
    /// into group commits, trading a wider loss window for fewer fsyncs.
    pub group_commit_bytes: usize,
    /// Modeled sim-clock cost of one fsync, accumulated into
    /// [`WalStats::io_cost`]. Group commit amortizes exactly this.
    pub fsync_cost: SimDuration,
    /// Modeled replay bandwidth for recovery-time accounting (MB/s).
    pub replay_mb_s: f64,
}

impl Default for WalConfig {
    fn default() -> Self {
        // 2 ms per fsync (commodity disk with a battery-backed cache) and
        // 50 MB/s replay — the same order the sim's DFS repair rate uses.
        WalConfig { group_commit_bytes: 0, fsync_cost: SimDuration(2), replay_mb_s: 50.0 }
    }
}

/// Counters a [`Wal`] keeps about its own activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records staged via `append`.
    pub appends: u64,
    /// Syncs performed (each one group commit).
    pub syncs: u64,
    /// Bytes made durable by syncs.
    pub synced_bytes: u64,
    /// Segment rotations (one per memstore flush).
    pub rotations: u64,
    /// Bytes dropped by truncation after successful flushes.
    pub truncated_bytes: u64,
    /// Torn writes suffered (injected crashes mid-sync).
    pub torn_writes: u64,
    /// Fsync failures suffered.
    pub fsync_failures: u64,
}

/// One replayed record: a put (`value: Some`) or delete tombstone
/// (`value: None`) with its original store-assigned timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic append sequence number (1-based).
    pub seq: u64,
    /// The cell coordinate and timestamp exactly as written.
    pub key: InternalKey,
    /// Payload; `None` is a delete tombstone.
    pub value: Option<Bytes>,
}

/// Why replay stopped before the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStop {
    /// An incomplete or checksum-failing frame at the tail of the *last*
    /// segment — the normal aftermath of a crash mid-append. Recovery
    /// truncates here and carries on.
    TornTail {
        /// Segment index holding the torn frame.
        segment: u64,
        /// Byte offset of the torn frame within that segment.
        offset: u64,
    },
    /// A bad frame *before* the log tail: damage that truncation cannot
    /// honestly repair. Surfaced as [`HStoreError::Corruption`].
    Corrupt {
        /// Segment index holding the damaged frame.
        segment: u64,
        /// Byte offset of the damaged frame within that segment.
        offset: u64,
    },
}

/// The outcome of [`Wal::replay`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Every record that survived, in append order.
    pub records: Vec<WalRecord>,
    /// Where and why replay stopped early, if it did.
    pub stop: Option<ReplayStop>,
    /// Durable bytes scanned.
    pub scanned_bytes: u64,
    /// Modeled replay time at [`WalConfig::replay_mb_s`].
    pub cost: SimDuration,
}

impl WalReplay {
    /// Highest replayed sequence number (`0` when nothing survived).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(0, |r| r.seq)
    }
}

#[derive(Debug, Clone)]
struct WalSegment {
    index: u64,
    data: Vec<u8>,
}

/// The write-ahead log of one [`crate::CfStore`].
#[derive(Debug, Clone)]
pub struct Wal {
    cfg: WalConfig,
    /// Rotated-out segments awaiting truncation (oldest first).
    sealed: Vec<WalSegment>,
    active: WalSegment,
    /// Staged, unsynced bytes — the volatile OS buffer. Lost on crash.
    pending: Vec<u8>,
    /// Seq of the last record staged into `pending`.
    staged_seq: u64,
    /// Seq of the last record made durable by a sync.
    durable_seq: u64,
    next_seq: u64,
    stats: WalStats,
    /// Armed disk faults (consumed by the next sync).
    armed_torn_write: Option<u64>,
    armed_fsync_fail: bool,
    /// Set after a torn write: the process "died" mid-sync, so the log
    /// refuses further writes until crash-recovered.
    crashed: bool,
}

impl Wal {
    /// An empty log.
    pub fn new(cfg: WalConfig) -> Self {
        Wal {
            cfg,
            sealed: Vec::new(),
            active: WalSegment { index: 0, data: Vec::new() },
            pending: Vec::new(),
            staged_seq: 0,
            durable_seq: 0,
            next_seq: 1,
            stats: WalStats::default(),
            armed_torn_write: None,
            armed_fsync_fail: false,
            crashed: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WalConfig {
        &self.cfg
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Seq of the last record guaranteed durable (`0` = none).
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Durable bytes across every live segment (excludes `pending`).
    pub fn durable_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.data.len() as u64).sum::<u64>() + self.active.data.len() as u64
    }

    /// Staged bytes not yet synced.
    pub fn pending_bytes(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Number of sealed (rotated, not yet truncated) segments.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    /// Accumulated modeled fsync time.
    pub fn io_cost(&self) -> SimDuration {
        SimDuration(self.stats.syncs * self.cfg.fsync_cost.as_millis())
    }

    /// Arms a torn write: the next sync persists only `bytes` bytes of
    /// the staged buffer and the log behaves as if the process died
    /// mid-write (further appends are refused until crash-recovery).
    pub fn arm_torn_write(&mut self, bytes: u64) {
        self.armed_torn_write = Some(bytes);
    }

    /// Arms an fsync failure: the next sync fails, its staged bytes are
    /// discarded, and the triggering writes stay unacknowledged.
    pub fn arm_fsync_fail(&mut self) {
        self.armed_fsync_fail = true;
    }

    /// Stages one record and syncs according to the group-commit policy.
    /// Returns the record's sequence number; on `Err` the record is *not*
    /// durable and the caller must not apply it.
    pub fn append(&mut self, key: &InternalKey, value: Option<&[u8]>) -> Result<u64> {
        if self.crashed {
            return Err(HStoreError::WalSyncFailed {
                segment: self.active.index,
                pending_bytes: self.pending.len() as u64,
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        encode_record(&mut self.pending, seq, key, value);
        self.staged_seq = seq;
        self.stats.appends += 1;
        if self.pending.len() >= self.cfg.group_commit_bytes.max(1)
            || self.cfg.group_commit_bytes == 0
        {
            self.sync()?;
        }
        Ok(seq)
    }

    /// Forces the staged buffer to disk (one group commit). No-op when
    /// nothing is staged and no fault is armed.
    pub fn sync(&mut self) -> Result<()> {
        if self.crashed {
            return Err(HStoreError::WalSyncFailed {
                segment: self.active.index,
                pending_bytes: self.pending.len() as u64,
            });
        }
        if self.armed_fsync_fail {
            self.armed_fsync_fail = false;
            self.stats.fsync_failures += 1;
            let pending_bytes = self.pending.len() as u64;
            // The failed writes were never acknowledged; drop them so the
            // log cannot later make durable something the caller rolled
            // back. (Real stores abort here — `CfStore` surfaces the
            // typed error and leaves that policy to its owner.)
            self.pending.clear();
            self.next_seq = self.durable_seq + 1;
            self.staged_seq = self.durable_seq;
            return Err(HStoreError::WalSyncFailed { segment: self.active.index, pending_bytes });
        }
        if let Some(torn) = self.armed_torn_write.take() {
            let keep = (torn as usize).min(self.pending.len());
            self.active.data.extend_from_slice(&self.pending[..keep]);
            self.stats.torn_writes += 1;
            self.crashed = true;
            let pending_bytes = self.pending.len() as u64;
            self.pending.clear();
            return Err(HStoreError::WalSyncFailed { segment: self.active.index, pending_bytes });
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        self.active.data.append(&mut self.pending);
        self.durable_seq = self.staged_seq;
        self.stats.syncs += 1;
        self.stats.synced_bytes = self.active.data.len() as u64
            + self.sealed.iter().map(|s| s.data.len() as u64).sum::<u64>()
            + self.stats.truncated_bytes;
        Ok(())
    }

    /// Seals the active segment ahead of a memstore flush: staged bytes
    /// are synced into it first, then a fresh active segment opens. Edits
    /// arriving during the flush land in the new segment, so the sealed
    /// ones cover exactly the data being flushed. Returns the index of the
    /// segment that was sealed, so the flush can later reclaim exactly the
    /// segments it covers via [`Wal::truncate_sealed_through`].
    pub fn rotate(&mut self) -> Result<u64> {
        self.sync()?;
        let sealed_index = self.active.index;
        let index = sealed_index + 1;
        let sealed = std::mem::replace(&mut self.active, WalSegment { index, data: Vec::new() });
        if !sealed.data.is_empty() {
            self.sealed.push(sealed);
        }
        self.stats.rotations += 1;
        Ok(sealed_index)
    }

    /// Drops every sealed segment — called once the flush that rotated
    /// them has durably written its HFile. Returns the bytes reclaimed.
    pub fn truncate_sealed(&mut self) -> u64 {
        let bytes: u64 = self.sealed.iter().map(|s| s.data.len() as u64).sum();
        self.sealed.clear();
        self.stats.truncated_bytes += bytes;
        bytes
    }

    /// Drops sealed segments with index ≤ `through` — the background-flush
    /// variant of [`Wal::truncate_sealed`]: with several flushes in flight
    /// each one reclaims only the segments covering *its own* frozen
    /// memstore, never a later flush's still-needed log. Returns the bytes
    /// reclaimed.
    pub fn truncate_sealed_through(&mut self, through: u64) -> u64 {
        let mut bytes = 0u64;
        self.sealed.retain(|s| {
            if s.index <= through {
                bytes += s.data.len() as u64;
                false
            } else {
                true
            }
        });
        self.stats.truncated_bytes += bytes;
        bytes
    }

    /// Simulates process death: volatile state (the staged buffer, armed
    /// faults) vanishes, durable segments survive. The returned log is
    /// what a recovering store reopens.
    pub fn into_durable(mut self) -> Wal {
        self.pending.clear();
        self.staged_seq = self.durable_seq;
        self.armed_torn_write = None;
        self.armed_fsync_fail = false;
        self.crashed = false;
        // Replay re-derives `next_seq`; keep ours monotonic regardless.
        self.next_seq = self.durable_seq + 1;
        self
    }

    /// Flips one durable byte (bit-rot injection for tests and the crash
    /// nemesis). `segment` indexes sealed segments in order, with the
    /// active segment last; out-of-range coordinates are ignored.
    pub fn corrupt_byte(&mut self, segment: usize, offset: u64) {
        let seg = if segment < self.sealed.len() {
            Some(&mut self.sealed[segment])
        } else if segment == self.sealed.len() {
            Some(&mut self.active)
        } else {
            None
        };
        if let Some(seg) = seg {
            if let Some(b) = seg.data.get_mut(offset as usize) {
                *b ^= 0xFF;
            }
        }
    }

    /// Walks every durable segment in order, decoding records until the
    /// log ends or a frame fails. Never panics: a bad frame in the last
    /// segment is a torn tail (normal after a crash); one in an earlier
    /// segment is reported as corruption. Either way the valid prefix is
    /// returned.
    pub fn replay(&self) -> WalReplay {
        let mut records = Vec::new();
        let mut stop = None;
        let mut scanned = 0u64;
        let segment_count = self.sealed.len() + 1;
        'segments: for (i, seg) in
            self.sealed.iter().chain(std::iter::once(&self.active)).enumerate()
        {
            let mut offset = 0usize;
            while offset < seg.data.len() {
                match decode_record(&seg.data[offset..]) {
                    Ok((record, consumed)) => {
                        scanned += consumed as u64;
                        offset += consumed;
                        records.push(record);
                    }
                    Err(_) => {
                        let at_tail = i + 1 == segment_count;
                        stop = Some(if at_tail {
                            ReplayStop::TornTail { segment: seg.index, offset: offset as u64 }
                        } else {
                            ReplayStop::Corrupt { segment: seg.index, offset: offset as u64 }
                        });
                        break 'segments;
                    }
                }
            }
        }
        let cost =
            SimDuration::from_secs_f64(scanned as f64 / (self.cfg.replay_mb_s.max(0.001) * 1e6));
        WalReplay { records, stop, scanned_bytes: scanned, cost }
    }
}

/// Appends one frame to `buf`, written in place: the header is reserved
/// first, the payload fields follow, and `len` and `crc` are back-patched
/// once the payload is there to be measured and checksummed.
fn encode_record(buf: &mut Vec<u8>, seq: u64, key: &InternalKey, value: Option<&[u8]>) {
    let row = key.coord.row.as_bytes();
    let qual = key.coord.qualifier.as_bytes();
    let header = FRAME_HEADER_BYTES as usize;
    let start = buf.len();
    buf.reserve(
        header + 8 + 8 + 4 + row.len() + 4 + qual.len() + 1 + 4 + value.map_or(0, <[u8]>::len),
    );
    buf.extend_from_slice(&[0u8; FRAME_HEADER_BYTES as usize]);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&key.ts.0.to_le_bytes());
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    buf.extend_from_slice(row);
    buf.extend_from_slice(&(qual.len() as u32).to_le_bytes());
    buf.extend_from_slice(qual);
    match value {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            buf.extend_from_slice(v);
        }
    }
    let payload = &buf[start + header..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..start + header].copy_from_slice(&crc.to_le_bytes());
}

struct BadFrame;

/// Decodes one frame from the front of `data`, returning the record and
/// the bytes consumed. Any truncation, checksum mismatch or internal
/// length inconsistency is a [`BadFrame`] — bounds-checked throughout, so
/// arbitrary bytes can never panic the decoder.
fn decode_record(data: &[u8]) -> std::result::Result<(WalRecord, usize), BadFrame> {
    let header = FRAME_HEADER_BYTES as usize;
    if data.len() < header {
        return Err(BadFrame);
    }
    let len = u32::from_le_bytes(data[0..4].try_into().expect("4-byte slice")) as usize;
    let crc = u32::from_le_bytes(data[4..8].try_into().expect("4-byte slice"));
    let Some(payload) = data.get(header..header + len) else { return Err(BadFrame) };
    if crc32(payload) != crc {
        return Err(BadFrame);
    }
    let take = |off: &mut usize, n: usize| -> std::result::Result<&[u8], BadFrame> {
        let s = payload.get(*off..*off + n).ok_or(BadFrame)?;
        *off += n;
        Ok(s)
    };
    let mut off = 0usize;
    let seq = u64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8-byte slice"));
    let ts = u64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8-byte slice"));
    let row_len = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4-byte slice")) as usize;
    let row = Bytes::copy_from_slice(take(&mut off, row_len)?);
    let qual_len =
        u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4-byte slice")) as usize;
    let qual = Bytes::copy_from_slice(take(&mut off, qual_len)?);
    let tag = take(&mut off, 1)?[0];
    let value = match tag {
        0 => None,
        1 => {
            let val_len =
                u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4-byte slice")) as usize;
            Some(Bytes::copy_from_slice(take(&mut off, val_len)?))
        }
        _ => return Err(BadFrame),
    };
    if off != len {
        return Err(BadFrame);
    }
    let key = InternalKey::new(RowKey(row), Qualifier(qual), Timestamp(ts));
    Ok((WalRecord { seq, key, value }, header + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(row: &str, qual: &str, ts: u64) -> InternalKey {
        InternalKey::new(
            RowKey::new(row.as_bytes().to_vec()),
            Qualifier::new(qual.as_bytes().to_vec()),
            Timestamp(ts),
        )
    }

    /// The portable kernel as a one-shot checksum — the reference.
    fn portable(data: &[u8]) -> u32 {
        !update_portable(!0, data)
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The name a kernel goes by in test messages.
    fn name(kernel: Kernel) -> &'static str {
        match kernel {
            Kernel::Fold => "fold",
            Kernel::Sse42 => "sse4.2",
            Kernel::Portable => "portable",
        }
    }

    /// The kernels this host runs, fastest first, printed so that a log
    /// from a CPU without VPCLMULQDQ (or SSE4.2) shows which kernels went
    /// unexercised.
    fn kernels_here() -> Vec<Kernel> {
        let mut here: Vec<Kernel> = Vec::new();
        for kernel in [Kernel::Fold, Kernel::Sse42, Kernel::Portable].map(Kernel::supported) {
            if !here.contains(&kernel) {
                here.push(kernel);
            }
        }
        println!(
            "CRC-32C kernels on this host: {:?}",
            here.iter().map(|&k| name(k)).collect::<Vec<_>>()
        );
        here
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // The CRC-32C check values and the four 32-byte test patterns of
        // RFC 3720 appendix B.4, through every kernel this host runs and
        // through the dispatching entry point.
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        let dispatched = name(Kernel::Fold.supported());
        for (data, want) in vectors {
            assert_eq!(crc32(data), want, "dispatched ({dispatched}) over {data:02x?}");
            for kernel in kernels_here() {
                let got = !update_with(kernel, !0, data);
                assert_eq!(got, want, "{} kernel over {data:02x?}", name(kernel));
            }
        }
    }

    #[test]
    fn hardware_and_portable_kernels_agree() {
        // Every length up to 1 100 (each tail width of every path: 8/4/2/1
        // bytes, 64-byte lines, a first fold step), every length within 16
        // of a multiple of the fold step up to four stages (which takes in
        // one and two three-lane stripes, and every 1–15-byte tail after a
        // step or a stripe join), and 64 KiB + 1, from three running
        // states, at every start offset within a cache line. The reference
        // continues the portable kernel's state length by length.
        // Unoptimized, the kernels' intrinsics are calls and run ~100×
        // slower, so a debug build takes start offsets 0–7 only.
        let around_steps = (1..=4 * STAGE / FOLD).flat_map(|m| m * FOLD - 16..=m * FOLD + 16);
        let mut lens: Vec<usize> = (0..=1_100).chain(around_steps).chain([64 * 1024 + 1]).collect();
        lens.sort_unstable();
        lens.dedup();
        let longest = lens[lens.len() - 1];
        let data = noise(64 + longest, 0x9E37_79B9_7F4A_7C15);
        let offsets = if cfg!(debug_assertions) { 0..8 } else { 0..64 };
        for kernel in kernels_here() {
            for offset in offsets.clone() {
                for state in [!0u32, 0, 0xDEAD_BEEF] {
                    let (mut reference, mut done) = (state, 0);
                    for &len in &lens {
                        reference = update_portable(reference, &data[offset + done..offset + len]);
                        done = len;
                        assert_eq!(
                            update_with(kernel, state, &data[offset..offset + len]),
                            reference,
                            "{} kernel: offset {offset}, len {len}, state {state:#x}",
                            name(kernel)
                        );
                    }
                }
            }
        }
        // And over block-sized random buffers, through the dispatch.
        let dispatched = name(Kernel::Fold.supported());
        for seed in 1..=8u64 {
            let data = noise(16 * 1024 + seed as usize, seed);
            assert_eq!(crc32(&data), portable(&data), "{dispatched} kernel: seed {seed}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_mod_p() {
        // `x^n mod P` by shift and subtract on the unreflected polynomial
        // (bit i holds the coefficient of x^i), then bit-reversed into the
        // reflected order the kernels use: the definition, independent of
        // `CRC_TABLES` and of `x_pow_mod`'s byte steps.
        let poly = (1u64 << 32) | u64::from(CASTAGNOLI.reverse_bits());
        let x_pow = |n: usize| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= poly;
                }
            }
            (r as u32).reverse_bits()
        };
        for n in 0..=600 {
            assert_eq!(x_pow_mod(n), x_pow(n), "x^{n} mod P");
        }
        let tail = [192, 128, 64, 48, 32, 16].into_iter().zip(FOLD_TAIL);
        for (d, k) in [(FOLD, FOLD_STEP)].into_iter().chain(tail) {
            let want = [u64::from(x_pow(8 * d + 64 - 33)), u64::from(x_pow(8 * d - 33))];
            assert_eq!(k, want, "multipliers that fold a lane {d} bytes forward");
        }
        println!(
            "fold constants checked; this host runs the {} kernel",
            name(Kernel::Fold.supported())
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shift_tables_advance_a_state_through_one_lane_of_zeros() {
        let zeros = [0u8; LANE];
        for (k, table) in SHIFT.iter().enumerate() {
            for (b, &entry) in table.iter().enumerate() {
                let state = (b as u32) << (8 * k);
                assert_eq!(entry, update_portable(state, &zeros), "SHIFT[{k}][{b:#x}]");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A run staged piece by piece after an unstaged head — pieces
        /// from empty to several stages long, so every copy width and
        /// every way a piece can meet a stage boundary — checksums to what
        /// one pass over the whole run does.
        #[test]
        fn staged_pieces_equal_the_whole_run(
            seed in any::<u64>(),
            len in 0..4 * STAGE,
            cuts in prop::collection::vec(0..4 * STAGE, 0..400),
        ) {
            let data = noise(len, seed | 1);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            // The first piece goes straight to the kernel, as a block's
            // key arena does; the stage continues its state.
            let mut head = Crc32c::new();
            head.update(&data[..cuts[1]]);
            let mut staged = StagedCrc32c::new(head);
            for piece in cuts[1..].windows(2) {
                staged.push(&data[piece[0]..piece[1]]);
            }
            let dispatched = name(Kernel::Fold.supported());
            prop_assert_eq!(staged.finish(), portable(&data), "{} kernel", dispatched);
            prop_assert_eq!(crc32(&data), portable(&data), "{} kernel", dispatched);
        }
    }

    #[test]
    fn streaming_crc_equals_one_shot_over_any_split() {
        // `Crc32c` streams a record given in parts (the block oracle feeds
        // it field by field); that must match a CRC of the concatenated
        // serialization however the input is split —
        // every two- and three-way split, so every combination of fold
        // widths on either side of a boundary.
        let data = noise(100, 42);
        let whole = crc32(&data);
        assert_eq!(whole, portable(&data));
        for i in 0..=data.len() {
            for j in i..=data.len() {
                let mut crc = Crc32c::new();
                crc.update(&data[..i]);
                crc.update(&data[i..j]);
                crc.update(&data[j..]);
                assert_eq!(crc.finish(), whole, "split at {i} and {j}");
            }
        }
    }

    #[test]
    fn any_single_damaged_frame_byte_is_detected() {
        let mut frame = Vec::new();
        encode_record(&mut frame, 7, &key("row-0001", "field0", 99), Some(&noise(100, 7)));
        assert!(decode_record(&frame).is_ok());
        for i in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut damaged = frame.clone();
                damaged[i] ^= flip;
                assert!(decode_record(&damaged).is_err(), "byte {i} ^ {flip:#x} went undetected");
            }
        }
    }

    #[test]
    fn frames_are_encoded_in_place_behind_earlier_frames() {
        // The in-place writer back-patches its own header, not the
        // buffer's first eight bytes: two frames staged into one buffer
        // decode back to back, and each equals its stand-alone encoding.
        let (k1, k2) = (key("a", "q", 1), key("b", "q", 2));
        let mut both = Vec::new();
        encode_record(&mut both, 1, &k1, Some(b"v1"));
        let first_len = both.len();
        encode_record(&mut both, 2, &k2, None);
        let mut second = Vec::new();
        encode_record(&mut second, 2, &k2, None);
        assert_eq!(&both[first_len..], &second[..]);
        let (r1, used1) = decode_record(&both).ok().expect("first frame");
        let (r2, used2) = decode_record(&both[used1..]).ok().expect("second frame");
        assert_eq!((r1.seq, r1.key, r1.value.as_deref()), (1, k1, Some(b"v1".as_slice())));
        assert_eq!((r2.seq, r2.key, r2.value), (2, k2, None));
        assert_eq!(used1 + used2, both.len());
    }

    #[test]
    fn append_sync_replay_round_trips() {
        let mut wal = Wal::new(WalConfig::default());
        let s1 = wal.append(&key("r1", "q", 1), Some(b"v1")).unwrap();
        let s2 = wal.append(&key("r2", "q", 2), None).unwrap();
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.durable_seq(), 2, "group size 0 syncs every append");
        let replay = wal.replay();
        assert!(replay.stop.is_none());
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].key, key("r1", "q", 1));
        assert_eq!(replay.records[0].value.as_deref(), Some(b"v1".as_slice()));
        assert_eq!(replay.records[1].value, None, "tombstone survives");
        assert_eq!(replay.last_seq(), 2);
    }

    #[test]
    fn group_commit_batches_syncs_and_bounds_the_loss_window() {
        let cfg = WalConfig { group_commit_bytes: 4096, ..Default::default() };
        let mut wal = Wal::new(cfg);
        for i in 0..10u64 {
            wal.append(&key(&format!("r{i}"), "q", i), Some(b"payload")).unwrap();
        }
        assert_eq!(wal.stats().syncs, 0, "staged under the group threshold");
        assert_eq!(wal.durable_seq(), 0);
        wal.sync().unwrap();
        assert_eq!(wal.stats().syncs, 1, "ten appends rode one fsync");
        assert_eq!(wal.durable_seq(), 10);
        // Staged-but-unsynced bytes die with the process.
        let mut wal2 = Wal::new(cfg);
        wal2.append(&key("a", "q", 1), Some(b"v")).unwrap();
        wal2.sync().unwrap();
        wal2.append(&key("b", "q", 2), Some(b"v")).unwrap();
        let recovered = wal2.into_durable();
        assert_eq!(recovered.replay().last_seq(), 1, "unsynced append lost, synced one kept");
    }

    #[test]
    fn torn_tail_is_truncated_never_panicking() {
        let mut wal = Wal::new(WalConfig::default());
        wal.append(&key("a", "q", 1), Some(b"v1")).unwrap();
        wal.append(&key("b", "q", 2), Some(b"v2")).unwrap();
        // Tear the final append at every possible byte boundary.
        let full = wal.durable_bytes();
        wal.arm_torn_write(0);
        assert!(wal.append(&key("c", "q", 3), Some(b"v3")).is_err());
        let torn_at_zero = wal.clone().into_durable();
        let r = torn_at_zero.replay();
        assert_eq!(r.records.len(), 2, "zero torn bytes = clean tail");
        assert!(r.stop.is_none());
        assert_eq!(torn_at_zero.durable_bytes(), full);

        for torn in 1..40u64 {
            let mut wal = Wal::new(WalConfig::default());
            wal.append(&key("a", "q", 1), Some(b"v1")).unwrap();
            wal.append(&key("b", "q", 2), Some(b"v2")).unwrap();
            wal.arm_torn_write(torn);
            assert!(wal.append(&key("c", "q", 3), Some(b"torn-victim")).is_err());
            let recovered = wal.into_durable();
            let replay = recovered.replay();
            assert_eq!(replay.records.len(), 2, "torn@{torn}: prefix intact");
            assert_eq!(replay.last_seq(), 2);
            if torn > 0 {
                assert!(
                    matches!(replay.stop, Some(ReplayStop::TornTail { .. })),
                    "torn@{torn}: partial frame must read as a torn tail, got {:?}",
                    replay.stop
                );
            }
        }
    }

    #[test]
    fn fsync_failure_rejects_the_write_and_preserves_the_log() {
        let mut wal = Wal::new(WalConfig::default());
        wal.append(&key("a", "q", 1), Some(b"v1")).unwrap();
        wal.arm_fsync_fail();
        let err = wal.append(&key("b", "q", 2), Some(b"v2")).unwrap_err();
        assert!(matches!(err, HStoreError::WalSyncFailed { .. }));
        assert_eq!(wal.stats().fsync_failures, 1);
        // The rejected write is gone; the log still works afterwards.
        wal.append(&key("c", "q", 3), Some(b"v3")).unwrap();
        let seqs: Vec<u64> = wal.replay().records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1, 2], "seq reissued to the next accepted write");
        let rows: Vec<&[u8]> = wal
            .replay()
            .records
            .iter()
            .map(|r| r.key.coord.row.0.as_ref().to_vec())
            .map(|_| b"".as_slice())
            .collect();
        let _ = rows;
        assert_eq!(wal.replay().records[1].key, key("c", "q", 3));
    }

    #[test]
    fn rotation_seals_and_truncation_reclaims() {
        let mut wal = Wal::new(WalConfig::default());
        wal.append(&key("a", "q", 1), Some(b"v1")).unwrap();
        wal.rotate().unwrap();
        assert_eq!(wal.sealed_segments(), 1);
        wal.append(&key("b", "q", 2), Some(b"v2")).unwrap();
        assert_eq!(wal.replay().records.len(), 2, "sealed + active both replay");
        let reclaimed = wal.truncate_sealed();
        assert!(reclaimed > 0);
        assert_eq!(wal.sealed_segments(), 0);
        let replay = wal.replay();
        assert_eq!(replay.records.len(), 1, "only the post-rotation edit remains");
        assert_eq!(replay.records[0].key, key("b", "q", 2));
    }

    #[test]
    fn truncation_through_an_index_spares_later_segments() {
        let mut wal = Wal::new(WalConfig::default());
        wal.append(&key("a", "q", 1), Some(b"v1")).unwrap();
        let first = wal.rotate().unwrap();
        wal.append(&key("b", "q", 2), Some(b"v2")).unwrap();
        let second = wal.rotate().unwrap();
        assert!(second > first);
        wal.append(&key("c", "q", 3), Some(b"v3")).unwrap();
        assert_eq!(wal.sealed_segments(), 2);
        // Reclaiming the first flush's segments must not touch the second's.
        let reclaimed = wal.truncate_sealed_through(first);
        assert!(reclaimed > 0);
        assert_eq!(wal.sealed_segments(), 1);
        let replay = wal.replay();
        assert_eq!(replay.records.len(), 2, "second sealed segment + active survive");
        assert_eq!(replay.records[0].key, key("b", "q", 2));
        // Reclaiming through the second index empties the sealed list.
        wal.truncate_sealed_through(second);
        assert_eq!(wal.sealed_segments(), 0);
        assert_eq!(wal.replay().records.len(), 1);
    }

    #[test]
    fn mid_log_bit_rot_is_corruption_not_a_torn_tail() {
        let mut wal = Wal::new(WalConfig::default());
        wal.append(&key("a", "q", 1), Some(b"v1")).unwrap();
        wal.rotate().unwrap();
        wal.append(&key("b", "q", 2), Some(b"v2")).unwrap();
        // Damage the sealed (earlier) segment.
        wal.corrupt_byte(0, FRAME_HEADER_BYTES + 3);
        let replay = wal.replay();
        assert!(matches!(replay.stop, Some(ReplayStop::Corrupt { segment: 0, offset: 0 })));
        assert!(replay.records.is_empty(), "nothing before the damage");
        // Damage in the active (last) segment reads as a torn tail.
        let mut wal2 = Wal::new(WalConfig::default());
        wal2.append(&key("a", "q", 1), Some(b"v1")).unwrap();
        wal2.append(&key("b", "q", 2), Some(b"v2")).unwrap();
        let first_frame = {
            let r = wal2.replay();
            assert_eq!(r.records.len(), 2);
            r.scanned_bytes / 2
        };
        wal2.corrupt_byte(0, first_frame + FRAME_HEADER_BYTES + 1);
        let replay2 = wal2.replay();
        assert_eq!(replay2.records.len(), 1);
        assert!(matches!(replay2.stop, Some(ReplayStop::TornTail { .. })));
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes() {
        // Deterministic pseudo-random garbage, plus adversarial headers
        // claiming absurd lengths.
        for len in 0..64usize {
            let _ = decode_record(&noise(len, 0x9E37_79B9_7F4A_7C15 + len as u64));
        }
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        assert!(decode_record(&huge).is_err());
    }

    #[test]
    fn io_cost_tracks_group_commit() {
        let mut per_append = Wal::new(WalConfig::default());
        let mut grouped = Wal::new(WalConfig { group_commit_bytes: 1 << 20, ..Default::default() });
        for i in 0..100u64 {
            per_append.append(&key(&format!("r{i}"), "q", i), Some(b"v")).unwrap();
            grouped.append(&key(&format!("r{i}"), "q", i), Some(b"v")).unwrap();
        }
        grouped.sync().unwrap();
        assert_eq!(per_append.stats().syncs, 100);
        assert_eq!(grouped.stats().syncs, 1);
        assert!(grouped.io_cost() < per_append.io_cost(), "group commit amortizes fsync cost");
    }
}
