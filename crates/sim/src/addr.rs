//! Physical addresses and address arithmetic.

use std::fmt;

/// A physical byte address in the simulated memory.
///
/// `Addr` is a transparent newtype around `u64` providing the address
/// arithmetic the simulator and the prefetchers need: cacheline alignment,
/// page extraction and bounded signed offsets. Formatting with `{:#x}` works
/// as it would for the raw integer.
///
/// # Examples
///
/// ```
/// use prefender_sim::Addr;
///
/// let a = Addr::new(0x12345);
/// assert_eq!(a.line(64).raw(), 0x12340);
/// assert_eq!(a.page(4096).raw(), 0x12000);
/// assert!(a.same_page(Addr::new(0x12FFF), 4096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// The zero address.
    pub const ZERO: Addr = Addr(0);

    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the address aligned down to the start of its cacheline.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `line_size` is not a power of two.
    #[inline]
    pub fn line(self, line_size: u64) -> Addr {
        debug_assert!(line_size.is_power_of_two(), "line size must be a power of two");
        Addr(self.0 & !(line_size - 1))
    }

    /// Returns the address aligned down to the start of its page.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `page_size` is not a power of two.
    #[inline]
    pub fn page(self, page_size: u64) -> Addr {
        debug_assert!(page_size.is_power_of_two(), "page size must be a power of two");
        Addr(self.0 & !(page_size - 1))
    }

    /// Returns `true` when `self` and `other` live on the same page.
    #[inline]
    pub fn same_page(self, other: Addr, page_size: u64) -> bool {
        self.page(page_size) == other.page(page_size)
    }

    /// Returns `true` when `self` and `other` live on the same cacheline.
    #[inline]
    pub fn same_line(self, other: Addr, line_size: u64) -> bool {
        self.line(line_size) == other.line(line_size)
    }

    /// Offsets the address by a signed byte amount, returning `None` on
    /// overflow or underflow (an address can never be negative).
    #[inline]
    pub fn offset(self, delta: i64) -> Option<Addr> {
        self.0.checked_add_signed(delta).map(Addr)
    }

    /// Absolute distance in bytes between two addresses.
    #[inline]
    pub fn distance(self, other: Addr) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_alignment_masks_low_bits() {
        assert_eq!(Addr::new(0x12345).line(64), Addr::new(0x12340));
        assert_eq!(Addr::new(0x12340).line(64), Addr::new(0x12340));
        assert_eq!(Addr::new(0x1237F).line(64), Addr::new(0x12340));
        assert_eq!(Addr::new(0x12380).line(64), Addr::new(0x12380));
    }

    #[test]
    fn page_alignment_masks_low_bits() {
        assert_eq!(Addr::new(0x12FFF).page(4096), Addr::new(0x12000));
        assert_eq!(Addr::new(0x13000).page(4096), Addr::new(0x13000));
    }

    #[test]
    fn same_page_boundaries() {
        let p = 4096;
        assert!(Addr::new(0x1000).same_page(Addr::new(0x1FFF), p));
        assert!(!Addr::new(0x1FFF).same_page(Addr::new(0x2000), p));
    }

    #[test]
    fn same_line_boundaries() {
        assert!(Addr::new(0x100).same_line(Addr::new(0x13F), 64));
        assert!(!Addr::new(0x13F).same_line(Addr::new(0x140), 64));
    }

    #[test]
    fn offset_checked_behaviour() {
        assert_eq!(Addr::new(100).offset(-100), Some(Addr::new(0)));
        assert_eq!(Addr::new(100).offset(-101), None);
        assert_eq!(Addr::new(u64::MAX).offset(1), None);
        assert_eq!(Addr::new(0x1000).offset(0x200), Some(Addr::new(0x1200)));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Addr::new(0x1000);
        let b = Addr::new(0x1400);
        assert_eq!(a.distance(b), 0x400);
        assert_eq!(b.distance(a), 0x400);
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(0x1C00).to_string(), "0x1c00");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(format!("{:X}", Addr::new(255)), "FF");
        assert_eq!(format!("{:b}", Addr::new(5)), "101");
        assert_eq!(format!("{:o}", Addr::new(8)), "10");
    }

    #[test]
    fn conversions_round_trip() {
        let a: Addr = 0xdead_beefu64.into();
        let raw: u64 = a.into();
        assert_eq!(raw, 0xdead_beef);
    }
}
