//! Sparse byte-addressed memory.
//!
//! The executor's address space is a flat 32-bit space backed by
//! 4 KiB pages allocated on first touch, so kernels can place code and
//! data at widely separated bases (mirroring the synthetic workloads'
//! address-map convention) without the host paying for the gap. Reads
//! from never-written locations return zero — the same contract as
//! zero-initialised memory — which keeps kernel startup free of
//! clearing loops.

use bmp_uarch::fp::FnvHashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u32 = (PAGE_SIZE as u32) - 1;

type Page = Box<[u8; PAGE_SIZE]>;

/// Sparse little-endian memory over the full 32-bit address space.
///
/// Every access costs one page lookup: a halfword or word that lies
/// inside one page is read or written whole, and only an access that
/// straddles a page edge (or the 2^32 wrap) falls back to bytes.
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: FnvHashMap<u32, Page>,
}

impl Memory {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages touched so far (writes only; reads of
    /// untouched pages do not allocate).
    pub fn pages_touched(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        self.pages.get(&(addr >> PAGE_SHIFT))
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads `N` bytes at `addr`: in place when they share a page,
    /// byte by byte across a page edge.
    #[inline]
    fn load<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = (addr & OFFSET_MASK) as usize;
        let mut out = [0; N];
        if off + N <= PAGE_SIZE {
            if let Some(page) = self.page(addr) {
                out.copy_from_slice(&page[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.load_u8(addr.wrapping_add(i as u32));
            }
        }
        out
    }

    /// Writes `bytes` at `addr`: in place when they share a page, byte
    /// by byte across a page edge.
    #[inline]
    fn store<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = (addr & OFFSET_MASK) as usize;
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.store_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads one byte; untouched memory reads as zero.
    #[inline]
    pub fn load_u8(&self, addr: u32) -> u8 {
        self.page(addr)
            .map_or(0, |page| page[(addr & OFFSET_MASK) as usize])
    }

    /// Writes one byte, allocating the page on first touch.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads a little-endian halfword (no alignment requirement).
    #[inline]
    pub fn load_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.load(addr))
    }

    /// Writes a little-endian halfword.
    #[inline]
    pub fn store_u16(&mut self, addr: u32, value: u16) {
        self.store(addr, value.to_le_bytes());
    }

    /// Reads a little-endian word (no alignment requirement).
    #[inline]
    pub fn load_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.load(addr))
    }

    /// Writes a little-endian word.
    #[inline]
    pub fn store_u32(&mut self, addr: u32, value: u32) {
        self.store(addr, value.to_le_bytes());
    }

    /// Copies `bytes` into memory starting at `base`, one page at a
    /// time; addresses wrap at 2^32.
    pub fn write_bytes(&mut self, base: u32, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Writes a slice of words at consecutive word addresses from `base`.
    pub fn write_words(&mut self, base: u32, words: &[u32]) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.write_bytes(base, &bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.load_u8(0), 0);
        assert_eq!(m.load_u32(0xffff_fffc), 0);
        assert_eq!(m.pages_touched(), 0);
    }

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Memory::new();
        m.store_u32(0x1000, 0xdead_beef);
        assert_eq!(m.load_u32(0x1000), 0xdead_beef);
        assert_eq!(m.load_u8(0x1000), 0xef);
        assert_eq!(m.load_u8(0x1003), 0xde);
        assert_eq!(m.load_u16(0x1002), 0xdead);
        m.store_u16(0x1000, 0x1234);
        assert_eq!(m.load_u32(0x1000), 0xdead_1234);
    }

    #[test]
    fn writes_spanning_page_boundary() {
        let mut m = Memory::new();
        m.store_u32(0x1ffe, 0x0102_0304);
        assert_eq!(m.load_u32(0x1ffe), 0x0102_0304);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn bulk_writers() {
        let mut m = Memory::new();
        m.write_words(0x100, &[1, 2, 3]);
        assert_eq!(m.load_u32(0x108), 3);
        m.write_bytes(0x200, b"hi");
        assert_eq!(m.load_u8(0x201), b'i');
    }

    /// One access against memory: `(kind, addr, value, bulk length)`.
    type Access = (u8, u32, u32, usize);

    /// Addresses within 16 bytes of a page edge or of the 2^32 wrap.
    fn arb_access() -> impl Strategy<Value = Access> {
        let edges = [0u32, 0x1000, 0x2000, 0x8000_0000, 0xffff_f000];
        (
            0u8..8,
            0usize..edges.len(),
            0u32..32,
            any::<u32>(),
            0usize..24,
        )
            .prop_map(move |(kind, e, off, value, len)| {
                (
                    kind,
                    edges[e].wrapping_sub(16).wrapping_add(off),
                    value,
                    len,
                )
            })
    }

    /// The byte-map model: absent bytes read as zero.
    fn read(model: &BTreeMap<u32, u8>, addr: u32, n: u32) -> u32 {
        (0..n).rev().fold(0, |v, i| {
            v << 8 | u32::from(model.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
        })
    }

    fn write(model: &mut BTreeMap<u32, u8>, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            model.insert(addr.wrapping_add(i as u32), b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mixed-width loads and stores and both bulk writers agree with
        /// a byte map at page edges and across the 2^32 wrap; loads never
        /// allocate, and stores allocate exactly the pages they touch.
        #[test]
        fn matches_a_byte_map(accesses in prop::collection::vec(arb_access(), 1..64)) {
            let mut m = Memory::new();
            let mut model = BTreeMap::new();
            for (kind, addr, value, len) in accesses {
                let pages = m.pages_touched();
                match kind {
                    0 => prop_assert_eq!(u32::from(m.load_u8(addr)), read(&model, addr, 1)),
                    1 => prop_assert_eq!(u32::from(m.load_u16(addr)), read(&model, addr, 2)),
                    2 => prop_assert_eq!(m.load_u32(addr), read(&model, addr, 4)),
                    3 => {
                        m.store_u8(addr, value as u8);
                        write(&mut model, addr, &[value as u8]);
                    }
                    4 => {
                        m.store_u16(addr, value as u16);
                        write(&mut model, addr, &(value as u16).to_le_bytes());
                    }
                    5 => {
                        m.store_u32(addr, value);
                        write(&mut model, addr, &value.to_le_bytes());
                    }
                    6 => {
                        let bytes: Vec<u8> = (0..len).map(|i| value.wrapping_add(i as u32) as u8).collect();
                        m.write_bytes(addr, &bytes);
                        write(&mut model, addr, &bytes);
                    }
                    _ => {
                        let words: Vec<u32> = (0..len / 4).map(|i| value.rotate_left(i as u32)).collect();
                        m.write_words(addr, &words);
                        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                        write(&mut model, addr, &bytes);
                    }
                }
                if kind < 3 {
                    prop_assert_eq!(m.pages_touched(), pages, "a load allocated");
                }
                let model_pages: BTreeSet<u32> = model.keys().map(|a| a >> PAGE_SHIFT).collect();
                prop_assert_eq!(m.pages_touched(), model_pages.len());
            }
            for (&addr, &b) in &model {
                prop_assert_eq!(m.load_u8(addr), b, "byte {:#x}", addr);
            }
        }
    }
}
