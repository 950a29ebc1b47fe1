//! Typed views over the shared address space.

use std::marker::PhantomData;

use pagedmem::{Addr, AddrRange};

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
    impl Sealed for u64 {}
    impl Sealed for i64 {}
    impl Sealed for u32 {}
    impl Sealed for i32 {}
    impl Sealed for u8 {}
}

/// Element types that may live in shared memory.
///
/// This trait is sealed; it is implemented for the plain numeric types the
/// applications use (`f64`, `f32`, `u64`, `i64`, `u32`, `i32`, `u8`).
pub trait Shareable: Copy + Send + 'static + private::Sealed {
    /// Size of one element in bytes.
    const BYTES: usize;

    /// Encodes the value into `out` (little endian).
    ///
    /// # Panics
    ///
    /// Implementations panic if `out` is shorter than [`Self::BYTES`].
    fn store(self, out: &mut [u8]);

    /// Decodes a value from `input` (little endian).
    ///
    /// # Panics
    ///
    /// Implementations panic if `input` is shorter than [`Self::BYTES`].
    fn load(input: &[u8]) -> Self;
}

macro_rules! impl_shareable {
    ($($ty:ty),*) => {
        $(
            impl Shareable for $ty {
                const BYTES: usize = std::mem::size_of::<$ty>();

                #[inline]
                fn store(self, out: &mut [u8]) {
                    out[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
                }

                #[inline]
                fn load(input: &[u8]) -> Self {
                    <$ty>::from_le_bytes(input[..Self::BYTES].try_into().expect("enough bytes"))
                }
            }
        )*
    };
}

impl_shareable!(f64, f32, u64, i64, u32, i32, u8);

/// A one-dimensional shared array of `T`.
///
/// The handle is plain data (base address and length); all accesses go
/// through [`Process::get`](crate::Process::get) and
/// [`Process::set`](crate::Process::set), which is where the DSM consistency
/// protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedArray<T: Shareable> {
    base: Addr,
    len: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Shareable> SharedArray<T> {
    /// Creates a view of `len` elements starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not aligned to the element size: the page size
    /// is a multiple of every element size, so an aligned array's elements
    /// never straddle a page, which every access relies on.
    pub fn new(base: Addr, len: usize) -> SharedArray<T> {
        assert!(
            base.as_usize().is_multiple_of(T::BYTES),
            "shared array base {base} is not aligned to its {}-byte elements",
            T::BYTES
        );
        SharedArray { base, len, _marker: PhantomData }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The address of element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn addr_of(&self, index: usize) -> Addr {
        assert!(index < self.len, "index {index} out of bounds for shared array of {}", self.len);
        self.base.offset(index * T::BYTES)
    }

    /// The address range covering elements `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > len`.
    pub fn range_of(&self, lo: usize, hi: usize) -> AddrRange {
        assert!(
            lo <= hi && hi <= self.len,
            "invalid element range {lo}..{hi} for length {}",
            self.len
        );
        AddrRange::new(self.base.offset(lo * T::BYTES), (hi - lo) * T::BYTES)
    }

    /// The address range covering the whole array.
    pub fn full_range(&self) -> AddrRange {
        self.range_of(0, self.len)
    }
}

/// A two-dimensional shared matrix of `T` in column-major (Fortran) layout.
///
/// Column-major layout matches the paper's Fortran applications: a block of
/// consecutive columns — the unit of work distribution in Jacobi, Shallow,
/// Gauss and MGS — is a contiguous address range, which is exactly what the
/// compiler interface's sections describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMatrix<T: Shareable> {
    array: SharedArray<T>,
    rows: usize,
    cols: usize,
}

impl<T: Shareable> SharedMatrix<T> {
    /// Creates a `rows x cols` matrix view over `array`.
    ///
    /// # Panics
    ///
    /// Panics if `array.len() != rows * cols`.
    pub fn new(array: SharedArray<T>, rows: usize, cols: usize) -> SharedMatrix<T> {
        assert_eq!(array.len(), rows * cols, "matrix dimensions do not match backing array");
        SharedMatrix { array, rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing one-dimensional array.
    pub fn array(&self) -> &SharedArray<T> {
        &self.array
    }

    /// The linear element index of `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        col * self.rows + row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagedmem::PAGE_SIZE;

    #[test]
    fn element_addresses_are_spaced_by_element_size() {
        let a = SharedArray::<f64>::new(Addr::new(0), 100);
        assert_eq!(a.addr_of(0), Addr::new(0));
        assert_eq!(a.addr_of(3), Addr::new(24));
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }

    #[test]
    fn ranges_cover_requested_elements() {
        let a = SharedArray::<u32>::new(Addr::new(64), 10);
        let r = a.range_of(2, 5);
        assert_eq!(r.start(), Addr::new(64 + 8));
        assert_eq!(r.len(), 12);
        assert_eq!(a.full_range().len(), 40);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_address_panics() {
        let a = SharedArray::<f64>::new(Addr::new(0), 4);
        let _ = a.addr_of(4);
    }

    #[test]
    #[should_panic(expected = "not aligned to its 8-byte elements")]
    fn an_unaligned_base_panics_naming_the_alignment() {
        let _ = SharedArray::<f64>::new(Addr::new(4), 8);
    }

    #[test]
    fn matrix_is_column_major() {
        let a = SharedArray::<f64>::new(Addr::new(0), 12);
        let m = SharedMatrix::new(a, 3, 4);
        assert_eq!(m.index(0, 0), 0);
        assert_eq!(m.index(2, 0), 2);
        assert_eq!(m.index(0, 1), 3);
        assert_eq!(m.index(1, 2), 7);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn column_ranges_are_contiguous() {
        let rows = PAGE_SIZE / 8;
        let a = SharedArray::<f64>::new(Addr::new(0), rows * 4);
        let m = SharedMatrix::new(a, rows, 4);
        let r = m.array().range_of(m.index(0, 1), m.index(0, 3));
        assert_eq!(r.start(), Addr::new(PAGE_SIZE));
        assert_eq!(r.len(), 2 * PAGE_SIZE);
    }

    /// `load(store(x)) == x` for every `Shareable` type, at the extremes and
    /// at a value whose bytes all differ, so a swapped byte order shows.
    #[test]
    fn shareable_round_trips() {
        fn round_trip<T: Shareable + PartialEq + std::fmt::Debug>(values: &[T]) {
            for &x in values {
                let mut buf = [0u8; 8];
                x.store(&mut buf);
                assert_eq!(T::load(&buf), x);
                assert!(buf[T::BYTES..].iter().all(|&b| b == 0), "store writes T::BYTES bytes");
            }
        }
        round_trip(&[0u8, 1, 0x7f, u8::MAX]);
        round_trip(&[0i32, -3, i32::MIN, i32::MAX, 0x0102_0304]);
        round_trip(&[0u32, 7, u32::MAX, 0x0102_0304]);
        round_trip(&[0.0f32, -1.5, f32::MIN_POSITIVE, f32::MAX, f32::INFINITY]);
        round_trip(&[0i64, -3, i64::MIN, i64::MAX, 0x0102_0304_0506_0708]);
        round_trip(&[0u64, 7, u64::MAX, 0x0102_0304_0506_0708]);
        round_trip(&[0.0f64, 42.5, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::NEG_INFINITY]);
        // Little endian: the least significant byte comes first.
        let mut buf = [0u8; 4];
        0x0102_0304u32.store(&mut buf);
        assert_eq!(buf, [4, 3, 2, 1]);
    }

    #[test]
    #[should_panic]
    fn mismatched_matrix_dimensions_panic() {
        let a = SharedArray::<f64>::new(Addr::new(0), 10);
        let _ = SharedMatrix::new(a, 3, 4);
    }
}
