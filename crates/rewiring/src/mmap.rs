//! Linux implementation of rewiring: one `memfd` provides physical
//! pages, a `PROT_NONE` reservation provides stable virtual addresses,
//! and `mmap(MAP_FIXED)` re-wires individual pages in O(1).
//!
//! This is the only module in the workspace that issues raw syscalls;
//! all `unsafe` is concentrated here behind a safe interface.

use crate::libc;
use std::io;
use std::ptr;

/// A contiguous virtual-address reservation whose pages can be wired
/// to arbitrary file pages of a private `memfd`.
#[derive(Debug)]
pub struct MmapRegion {
    /// Base of the reserved virtual area.
    base: *mut u8,
    /// Total reserved bytes (multiple of `page_bytes`).
    reserve_bytes: usize,
    /// Logical page size in bytes (multiple of the kernel page size).
    page_bytes: usize,
    /// Backing file descriptor (`memfd_create`).
    fd: libc::c_int,
    /// Current size of the backing file in pages.
    file_pages: usize,
    /// Page table: virtual page index → file page index, or
    /// `UNMAPPED`.
    table: Vec<u64>,
    /// Free file pages available for reuse.
    free_file_pages: Vec<u64>,
}

const UNMAPPED: u64 = u64::MAX;

// The region owns its mapping and fd exclusively; raw pointers are
// only dereferenced through &self/&mut self methods. There is no
// interior mutability: every page-table or mapping change takes
// `&mut self`, so shared `&self` access from multiple threads (e.g.
// under an `RwLock` read guard) is sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

/// Returns true if `memfd_create` + `MAP_FIXED` rewiring works here.
pub fn probe() -> bool {
    let kernel_page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
    match MmapRegion::new(kernel_page, kernel_page * 4, true) {
        Ok(mut r) => {
            // Exercise an actual wire + swap round trip.
            if r.wire(0, 2).is_err() {
                return false;
            }
            unsafe {
                *r.page_ptr(0) = 0xAB;
                *r.page_ptr(1) = 0xCD;
            }
            if r.swap(0, 1).is_err() {
                return false;
            }
            unsafe { *r.page_ptr(0) == 0xCD && *r.page_ptr(1) == 0xAB }
        }
        Err(_) => false,
    }
}

impl MmapRegion {
    /// Reserves `reserve_bytes` of virtual space with logical pages of
    /// `page_bytes` and creates the backing `memfd`. No physical
    /// memory is committed yet.
    pub fn new(page_bytes: usize, reserve_bytes: usize, huge_pages: bool) -> io::Result<Self> {
        let kernel_page = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
        assert!(page_bytes >= kernel_page && page_bytes.is_multiple_of(kernel_page));
        assert!(reserve_bytes.is_multiple_of(page_bytes) && reserve_bytes > 0);

        let fd = unsafe {
            libc::syscall(
                libc::SYS_memfd_create,
                c"rma-rewiring".as_ptr(),
                libc::MFD_CLOEXEC as libc::c_uint,
            )
        };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd = fd as libc::c_int;

        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                reserve_bytes,
                libc::PROT_NONE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            let err = io::Error::last_os_error();
            unsafe { libc::close(fd) };
            return Err(err);
        }
        // Huge pages are a best-effort hint, as in the paper's 2 MB
        // huge-page setup; ignore failure. Opt-out exists because
        // `defrag=madvise` kernels compact synchronously on fault.
        if huge_pages {
            unsafe {
                libc::madvise(base, reserve_bytes, libc::MADV_HUGEPAGE);
            }
        }

        Ok(MmapRegion {
            base: base as *mut u8,
            reserve_bytes,
            page_bytes,
            fd,
            file_pages: 0,
            table: vec![UNMAPPED; reserve_bytes / page_bytes],
            free_file_pages: Vec::new(),
        })
    }

    /// Logical page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// Number of logical pages in the reservation.
    pub fn max_pages(&self) -> usize {
        self.reserve_bytes / self.page_bytes
    }

    /// Pointer to the start of virtual page `vp`. The page must have
    /// been wired before the pointer is dereferenced.
    ///
    /// # Safety
    /// Dereferencing requires `vp` to be wired.
    pub unsafe fn page_ptr(&self, vp: usize) -> *mut u8 {
        debug_assert!(vp < self.max_pages());
        self.base.add(vp * self.page_bytes)
    }

    /// Number of file pages ever allocated minus those on the free
    /// list — i.e. physical pages currently wired somewhere.
    pub fn wired_pages(&self) -> usize {
        self.file_pages - self.free_file_pages.len()
    }

    fn alloc_file_page(&mut self) -> io::Result<u64> {
        if let Some(fp) = self.free_file_pages.pop() {
            return Ok(fp);
        }
        let fp = self.file_pages as u64;
        let new_size = (self.file_pages + 1) * self.page_bytes;
        let rc = unsafe { libc::ftruncate(self.fd, new_size as libc::off_t) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        self.file_pages += 1;
        Ok(fp)
    }

    fn map_at(&self, vp: usize, fp: u64) -> io::Result<()> {
        let addr = unsafe { self.page_ptr(vp) };
        // MAP_POPULATE pre-faults the mapping: without it, every
        // rewired page would pay one soft fault per kernel page on
        // first touch, which at 4 KiB kernel pages erases the benefit
        // of skipping the copy (the paper avoids this with 2 MiB huge
        // pages, where a remap costs a single fault).
        let got = unsafe {
            libc::mmap(
                addr as *mut libc::c_void,
                self.page_bytes,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_FIXED | libc::MAP_POPULATE,
                self.fd,
                (fp as usize * self.page_bytes) as libc::off_t,
            )
        };
        if got == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        debug_assert_eq!(got as *mut u8, addr);
        Ok(())
    }

    /// Wires `count` virtual pages starting at `first`, committing
    /// fresh (zeroed) physical pages for any that are unmapped.
    pub fn wire(&mut self, first: usize, count: usize) -> io::Result<()> {
        assert!(first + count <= self.max_pages());
        for vp in first..first + count {
            if self.table[vp] != UNMAPPED {
                continue;
            }
            let reused = !self.free_file_pages.is_empty();
            let fp = self.alloc_file_page()?;
            self.map_at(vp, fp)?;
            self.table[vp] = fp;
            if reused {
                // PUNCH_HOLE is best-effort (not all kernels support it
                // on memfds); guarantee zeroed content on reuse.
                unsafe { ptr::write_bytes(self.page_ptr(vp), 0, self.page_bytes) };
            }
        }
        Ok(())
    }

    /// Unwires `count` virtual pages starting at `first`, returning
    /// their physical pages to the free pool and punching holes so the
    /// kernel can reclaim the memory.
    pub fn unwire(&mut self, first: usize, count: usize) -> io::Result<()> {
        assert!(first + count <= self.max_pages());
        for vp in first..first + count {
            let fp = self.table[vp];
            if fp == UNMAPPED {
                continue;
            }
            let addr = unsafe { self.page_ptr(vp) };
            let got = unsafe {
                libc::mmap(
                    addr as *mut libc::c_void,
                    self.page_bytes,
                    libc::PROT_NONE,
                    libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE | libc::MAP_FIXED,
                    -1,
                    0,
                )
            };
            if got == libc::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            unsafe {
                libc::fallocate(
                    self.fd,
                    libc::FALLOC_FL_PUNCH_HOLE | libc::FALLOC_FL_KEEP_SIZE,
                    (fp as usize * self.page_bytes) as libc::off_t,
                    self.page_bytes as libc::off_t,
                );
            }
            self.free_file_pages.push(fp);
            self.table[vp] = UNMAPPED;
        }
        Ok(())
    }

    /// Swaps the physical pages behind virtual pages `a` and `b` — the
    /// rewiring primitive. Both must be wired. O(1), no data copied.
    pub fn swap(&mut self, a: usize, b: usize) -> io::Result<()> {
        let (fa, fb) = (self.table[a], self.table[b]);
        assert!(fa != UNMAPPED && fb != UNMAPPED, "swap of unwired page");
        if a == b {
            return Ok(());
        }
        self.map_at(a, fb)?;
        self.map_at(b, fa)?;
        self.table.swap(a, b);
        Ok(())
    }

    /// Swaps `count` pages starting at `a` with `count` pages starting
    /// at `b` (ranges must be disjoint), coalescing file-contiguous
    /// runs into single `mmap` calls — crucial where syscalls are
    /// expensive, since spare pools tend to stay contiguous.
    pub fn swap_range(&mut self, a: usize, b: usize, count: usize) -> io::Result<()> {
        assert!(
            a + count <= b || b + count <= a,
            "swap_range requires disjoint ranges"
        );
        for vp in (a..a + count).chain(b..b + count) {
            assert!(self.table[vp] != UNMAPPED, "swap of unwired page");
        }
        let fps_a: Vec<u64> = self.table[a..a + count].to_vec();
        let fps_b: Vec<u64> = self.table[b..b + count].to_vec();
        self.map_run(a, &fps_b)?;
        self.map_run(b, &fps_a)?;
        self.table.copy_within(b..b + count, a);
        for (i, fp) in fps_a.into_iter().enumerate() {
            self.table[b + i] = fp;
        }
        Ok(())
    }

    /// Maps virtual pages `vp_first..` to the given file pages,
    /// batching maximal file-contiguous runs into one `mmap` each.
    fn map_run(&self, vp_first: usize, fps: &[u64]) -> io::Result<()> {
        let mut i = 0;
        while i < fps.len() {
            let mut j = i + 1;
            while j < fps.len() && fps[j] == fps[j - 1] + 1 {
                j += 1;
            }
            let addr = unsafe { self.page_ptr(vp_first + i) };
            let bytes = (j - i) * self.page_bytes;
            let got = unsafe {
                libc::mmap(
                    addr as *mut libc::c_void,
                    bytes,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_SHARED | libc::MAP_FIXED | libc::MAP_POPULATE,
                    self.fd,
                    (fps[i] as usize * self.page_bytes) as libc::off_t,
                )
            };
            if got == libc::MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            i = j;
        }
        Ok(())
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.reserve_bytes);
            libc::close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(pages: usize) -> Option<MmapRegion> {
        let kp = unsafe { libc::sysconf(libc::_SC_PAGESIZE) } as usize;
        MmapRegion::new(kp, kp * pages, true).ok()
    }

    #[test]
    fn wire_zeroes_pages() {
        let Some(mut r) = region(4) else { return };
        r.wire(0, 2).unwrap();
        for vp in 0..2 {
            let p = unsafe { std::slice::from_raw_parts(r.page_ptr(vp), r.page_bytes()) };
            assert!(p.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn swap_moves_content_without_copy() {
        let Some(mut r) = region(4) else { return };
        r.wire(0, 2).unwrap();
        unsafe {
            r.page_ptr(0).write(1);
            r.page_ptr(1).write(2);
        }
        r.swap(0, 1).unwrap();
        unsafe {
            assert_eq!(r.page_ptr(0).read(), 2);
            assert_eq!(r.page_ptr(1).read(), 1);
        }
    }

    #[test]
    fn unwire_then_rewire_reuses_physical_pages() {
        let Some(mut r) = region(8) else { return };
        r.wire(0, 4).unwrap();
        assert_eq!(r.wired_pages(), 4);
        r.unwire(2, 2).unwrap();
        assert_eq!(r.wired_pages(), 2);
        r.wire(4, 2).unwrap();
        // Reused from the free pool: file never grew past 4 pages.
        assert_eq!(r.file_pages, 4);
    }

    #[test]
    fn rewired_page_is_zeroed_after_punch_hole() {
        let Some(mut r) = region(4) else { return };
        r.wire(0, 1).unwrap();
        unsafe { r.page_ptr(0).write(42) };
        r.unwire(0, 1).unwrap();
        r.wire(0, 1).unwrap();
        // PUNCH_HOLE discards old content; page must read as zero.
        unsafe { assert_eq!(r.page_ptr(0).read(), 0) };
    }

    #[test]
    fn probe_round_trips() {
        // On a normal Linux box this must succeed; in a locked-down
        // sandbox it may not. Either way it must not crash.
        let _ = probe();
    }
}
