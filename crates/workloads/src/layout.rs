//! Bump allocator for laying out workload arrays in simulated memory.

/// A page-aligned bump allocator over the simulated address space.
///
/// Workload builders use it to place arrays at non-overlapping,
/// page-aligned addresses, leaving the low addresses free (the
/// simulator maps nothing there, so stray null-ish speculative
/// accesses read zeroes harmlessly).
#[derive(Clone, Debug)]
pub struct Arena {
    next: u64,
}

impl Arena {
    /// Default base of workload data.
    pub const BASE: u64 = 0x1000_0000;

    /// Creates an arena starting at [`Arena::BASE`].
    pub fn new() -> Arena {
        Arena { next: Arena::BASE }
    }

    /// Allocates `bytes` bytes aligned to a 4 KiB page boundary,
    /// returning the base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next = (self.next + bytes + 0xfff) & !0xfff;
        base
    }

    /// Allocates space for `n` 8-byte elements.
    pub fn alloc_u64s(&mut self, n: u64) -> u64 {
        self.alloc(n * 8)
    }
}

impl Default for Arena {
    fn default() -> Arena {
        Arena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_page_aligned() {
        let mut a = Arena::new();
        let x = a.alloc(100);
        let y = a.alloc(5000);
        let z = a.alloc_u64s(3);
        assert_eq!(x, Arena::BASE);
        assert_eq!(x % 4096, 0);
        assert_eq!(y % 4096, 0);
        assert_eq!(z % 4096, 0);
        assert!(y >= x + 100);
        assert!(z >= y + 5000);
    }

    #[test]
    fn zero_sized_allocation_is_harmless() {
        let mut a = Arena::new();
        let x = a.alloc(0);
        let y = a.alloc(8);
        assert!(y >= x);
    }
}
