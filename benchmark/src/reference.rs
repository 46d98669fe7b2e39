//! The host-speed reference: a small protected memory of the benchmark's
//! own, and the calibrator that replays a slice of the workload's ops
//! through it right before and right after every timed replay.
//!
//! This host is a slice of a shared machine. What its neighbours do
//! moves every wall-clock number here by 25% and more for minutes at a
//! time, which no statistic over the rounds of one run can remove. The
//! reference sees the same host at the same moment through the same op
//! stream (same addresses, same working set, a fixed amount of cipher
//! work per block, the same way of fanning a batch out to threads), and
//! none of its code is the program's, so a change to the program moves
//! the engine's rate and leaves the reference's alone. Wall-clock
//! metrics are reported at the reference's nominal rate: measured value
//! times (nominal rate / rate the reference ran at around that round).

use crate::memory::{Block, Memory, BLOCK_BYTES, PAGE_BYTES};
use crate::stats;
use crate::workloads::{drive, Client, Mode, Op, Pool, Rng, Spec};
use std::time::Instant;

/// Stripes a batch is fanned out over, a thread each.
const STRIPES: usize = 8;
const LINES_PER_PAGE: usize = (PAGE_BYTES / BLOCK_BYTES) as usize;
/// Mixing rounds per keystream: sets the cipher work per block (on the
/// order of the engine's XTS + MAC on this host).
const MIX_ROUNDS: usize = 96;

#[derive(Debug, PartialEq, Eq)]
pub struct TagMismatch(pub u64);

/// One stripe: sealed blocks, a tag and a version per block, indexed by
/// the block's position within the stripe.
struct Stripe {
    sealed: Vec<Block>,
    tags: Vec<u64>,
    versions: Vec<u32>,
}

/// Counter-mode keystream over (key, address, version): eight words in
/// four independent add-rotate-xor lanes, so the work is bound by ALU
/// throughput the way block-parallel AES is. (Of the kernels tried, this
/// one lost the most to a busy sibling hyper-thread, nearly as much as
/// the engine; multiply chains and longer dependent chains lost less.)
#[inline]
fn keystream(key: &[u64; 8], addr: u64, version: u32) -> [u64; 8] {
    let mut s = *key;
    s[0] ^= addr;
    s[2] ^= addr.rotate_left(16);
    s[4] ^= addr.rotate_left(32) ^ u64::from(version);
    s[6] ^= addr.rotate_left(48);
    for _ in 0..MIX_ROUNDS {
        for lane in [0, 2, 4, 6] {
            s[lane] = s[lane].wrapping_add(s[lane + 1]);
            s[lane + 1] = s[lane + 1].rotate_left(13) ^ s[lane];
        }
    }
    s
}

fn words(block: &Block) -> [u64; 8] {
    let mut w = [0u64; 8];
    for (w, bytes) in w.iter_mut().zip(block.chunks_exact(8)) {
        *w = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    }
    w
}

fn tag(sealed: &[u64; 8], ks: &[u64; 8]) -> u64 {
    sealed.iter().zip(ks).fold(0u64, |acc, (c, k)| {
        (acc ^ c).wrapping_mul(k | 1).rotate_left(29)
    })
}

impl Stripe {
    fn write(&mut self, key: &[u64; 8], at: usize, addr: u64, data: &Block) {
        let version = self.versions[at] + 1;
        let ks = keystream(key, addr, version);
        let mut sealed = words(data);
        for (c, k) in sealed.iter_mut().zip(&ks) {
            *c ^= k;
        }
        for (bytes, c) in self.sealed[at].chunks_exact_mut(8).zip(&sealed) {
            bytes.copy_from_slice(&c.to_le_bytes());
        }
        self.tags[at] = tag(&sealed, &ks);
        self.versions[at] = version;
    }

    fn read(&self, key: &[u64; 8], at: usize, addr: u64) -> Result<Block, TagMismatch> {
        let version = self.versions[at];
        if version == 0 {
            return Ok([0u8; 64]);
        }
        let ks = keystream(key, addr, version);
        let sealed = words(&self.sealed[at]);
        if tag(&sealed, &ks) != self.tags[at] {
            return Err(TagMismatch(addr));
        }
        let mut out = [0u8; 64];
        for ((bytes, c), k) in out.chunks_exact_mut(8).zip(&sealed).zip(&ks) {
            bytes.copy_from_slice(&(c ^ k).to_le_bytes());
        }
        Ok(out)
    }
}

/// The reference memory: pages striped over [`STRIPES`] by page number,
/// single ops served in place, batches grouped by stripe and served by
/// a scoped thread per stripe.
pub struct RefMemory {
    key: [u64; 8],
    stripes: Vec<Stripe>,
}

impl RefMemory {
    pub fn new(footprint_bytes: u64, key: [u64; 8]) -> Self {
        let pages = footprint_bytes.div_ceil(PAGE_BYTES) as usize;
        let blocks = pages.div_ceil(STRIPES) * LINES_PER_PAGE;
        let stripes = (0..STRIPES)
            .map(|_| Stripe {
                sealed: vec![[0u8; 64]; blocks],
                tags: vec![0; blocks],
                versions: vec![0; blocks],
            })
            .collect();
        RefMemory { key, stripes }
    }

    /// `(stripe, position within it)` of the block at `addr`.
    #[inline]
    fn locate(addr: u64) -> (usize, usize) {
        let page = (addr / PAGE_BYTES) as usize;
        let line = ((addr % PAGE_BYTES) / BLOCK_BYTES) as usize;
        (page % STRIPES, page / STRIPES * LINES_PER_PAGE + line)
    }
}

impl Memory for RefMemory {
    type Error = TagMismatch;

    #[inline]
    fn write(&mut self, addr: u64, data: &Block) -> Result<(), TagMismatch> {
        let (stripe, at) = Self::locate(addr);
        self.stripes[stripe].write(&self.key, at, addr, data);
        Ok(())
    }

    #[inline]
    fn read(&mut self, addr: u64) -> Result<Block, TagMismatch> {
        let (stripe, at) = Self::locate(addr);
        self.stripes[stripe].read(&self.key, at, addr)
    }

    fn write_batch(&mut self, ops: &[(u64, Block)]) -> Result<(), TagMismatch> {
        let mut groups: [Vec<(usize, u64, &Block)>; STRIPES] = Default::default();
        for (addr, data) in ops {
            let (stripe, at) = Self::locate(*addr);
            groups[stripe].push((at, *addr, data));
        }
        let key = &self.key;
        std::thread::scope(|s| {
            for (stripe, group) in self.stripes.iter_mut().zip(&groups) {
                if !group.is_empty() {
                    s.spawn(move || {
                        for &(at, addr, data) in group {
                            stripe.write(key, at, addr, data);
                        }
                    });
                }
            }
        });
        Ok(())
    }

    fn read_batch(&mut self, addrs: &[u64]) -> Result<Vec<Block>, TagMismatch> {
        let mut groups: [Vec<(usize, usize, u64)>; STRIPES] = Default::default();
        for (i, &addr) in addrs.iter().enumerate() {
            let (stripe, at) = Self::locate(addr);
            groups[stripe].push((i, at, addr));
        }
        let key = &self.key;
        let served: Vec<Vec<(usize, Result<Block, TagMismatch>)>> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .stripes
                .iter()
                .zip(&groups)
                .filter(|(_, group)| !group.is_empty())
                .map(|(stripe, group)| {
                    s.spawn(move || {
                        group
                            .iter()
                            .map(|&(i, at, addr)| (i, stripe.read(key, at, addr)))
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference worker panicked"))
                .collect()
        });
        let mut out = vec![[0u8; 64]; addrs.len()];
        for (i, block) in served.into_iter().flatten() {
            out[i] = block?;
        }
        Ok(out)
    }
}

/// What the reference memory measured: its rate over a clock-free
/// replay of its slice, or the median latency of its clocked ops (the
/// other field stays 0).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostSpeed {
    pub blocks_per_s: f64,
    pub op_p50_ns: f64,
}

impl HostSpeed {
    pub fn mean_with(self, other: HostSpeed) -> HostSpeed {
        HostSpeed {
            blocks_per_s: (self.blocks_per_s + other.blocks_per_s) / 2.0,
            op_p50_ns: (self.op_p50_ns + other.op_p50_ns) / 2.0,
        }
    }
}

/// Replays the leading ops of a workload's round through a
/// [`RefMemory`] on demand and reports how fast that went.
pub struct Calibrator<'a> {
    mem: RefMemory,
    client: Client<'a>,
    ops: &'a [Op],
    batch: bool,
    latencies: Vec<u32>,
}

impl<'a> Calibrator<'a> {
    /// `ops` is the slice replayed per sample; the window is populated
    /// first if the workload's own set-up does that.
    pub fn new(spec: &Spec, pool: &'a Pool, ops: &'a [Op], seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EF0);
        let key = std::array::from_fn(|_| rng.next_u64());
        let mut mem = RefMemory::new(spec.window_bytes, key);
        let mut client = Client::new(pool, spec.window_bytes);
        if spec.populate {
            client.populate(&mut mem);
        }
        let mut cal = Calibrator {
            mem,
            client,
            ops,
            batch: spec.batch(),
            latencies: Vec::with_capacity(ops.len()),
        };
        // Once unobserved: first touches of the slice's blocks.
        cal.sample(false);
        cal
    }

    /// How fast the reference runs right now: its rate, or with
    /// `clocked` the median latency of its ops, clocked the way the
    /// workload's latency pass clocks the engine's.
    pub fn sample(&mut self, clocked: bool) -> HostSpeed {
        let mut speed = HostSpeed::default();
        if clocked {
            self.latencies.clear();
            let mode = Mode::Latency {
                latencies: &mut self.latencies,
                usage: &mut Vec::new(),
            };
            drive(&mut self.mem, &mut self.client, self.ops, self.batch, mode);
            self.latencies.sort_unstable();
            speed.op_p50_ns = stats::percentile_sorted(&self.latencies, 500)
                .expect("a reference sample clocks ops")
                .0;
        } else {
            let t = Instant::now();
            drive(
                &mut self.mem,
                &mut self.client,
                self.ops,
                self.batch,
                Mode::Timed,
            );
            speed.blocks_per_s = self.ops.len() as f64 / t.elapsed().as_secs_f64();
        }
        assert_eq!(self.client.failed, 0, "the reference memory refused an op");
        speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_return_the_last_write_singly_and_in_batches() {
        let mut mem = RefMemory::new(64 * PAGE_BYTES, [7; 8]);
        assert_eq!(mem.read(0x1040), Ok([0u8; 64]));
        mem.write(0x1040, &[1u8; 64]).unwrap();
        mem.write(0x1040, &[2u8; 64]).unwrap();
        assert_eq!(mem.read(0x1040), Ok([2u8; 64]));
        let writes: Vec<(u64, Block)> = (0..40u64)
            .map(|i| (i * PAGE_BYTES + 64 * (i % 64), [i as u8 + 3; 64]))
            .collect();
        mem.write_batch(&writes).unwrap();
        let addrs: Vec<u64> = writes.iter().rev().map(|w| w.0).collect();
        let blocks = mem.read_batch(&addrs).unwrap();
        let want: Vec<Block> = writes.iter().rev().map(|w| w.1).collect();
        assert_eq!(blocks, want);
    }

    #[test]
    fn a_flipped_stored_bit_fails_the_tag() {
        let mut mem = RefMemory::new(PAGE_BYTES, [9; 8]);
        mem.write(0x80, &[5u8; 64]).unwrap();
        let (stripe, at) = RefMemory::locate(0x80);
        mem.stripes[stripe].sealed[at][3] ^= 1;
        assert_eq!(mem.read(0x80), Err(TagMismatch(0x80)));
    }
}
