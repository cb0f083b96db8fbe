//! Newtype identifiers for MPU architectural resources.
//!
//! The MPU ISA names four kinds of hardware resource: vector registers
//! within a VRF ([`RegId`]), vector register files within an RF holder
//! ([`VrfId`]), RF holders within an MPU ([`RfhId`]), and MPUs within a chip
//! ([`MpuId`]). Jump targets are [`LineNum`]s (instruction indices within a
//! binary). Each is a distinct type so that e.g. a register index can never
//! be passed where a VRF index is expected.

use crate::table::FieldKind;
use std::fmt;

/// Maximum encodable vector-register index (6-bit field).
pub(crate) const REG_MAX: u16 = (1 << 6) - 1;
/// Maximum encodable VRF index within an RF holder (6-bit field).
pub(crate) const VRF_MAX: u16 = (1 << 6) - 1;
/// Maximum encodable RF-holder index within an MPU (5-bit field).
pub(crate) const RFH_MAX: u16 = (1 << 5) - 1;
/// Maximum encodable MPU index within a chip (10-bit field).
pub(crate) const MPU_MAX: u16 = (1 << 10) - 1;
/// Maximum encodable jump target (20-bit field).
pub(crate) const LINE_MAX: u32 = (1 << 20) - 1;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $max:expr, $kind:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Largest index representable in the instruction encoding.
            pub const MAX: $inner = $max;

            /// Returns the raw index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", FieldKind::$kind.spelling().0, self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl From<$name> for $inner {
            fn from(v: $name) -> $inner {
                v.0
            }
        }
    };
}

id_type!(
    /// Index of a vector register within a VRF.
    ///
    /// In a bitwise PUM datapath a vector register is one or more physical
    /// columns of a memory array; e.g. in RACER, register *i* maps to column
    /// *i* across all tiles of a pipeline.
    RegId, u16, REG_MAX, Reg
);

id_type!(
    /// Index of a vector register file within an RF holder.
    ///
    /// A VRF corresponds to the smallest collection of physical memory
    /// arrays capable of vector register access (a RACER pipeline, a
    /// MIMDRAM mat, a Duality Cache SRAM subarray).
    VrfId, u16, VRF_MAX, Vrf
);

id_type!(
    /// Index of a register-file holder within an MPU.
    ///
    /// An RF holder groups VRFs that share physical constraints (thermal
    /// activation limits, local interconnect, shared control units). The
    /// runtime enforces per-RFH active-VRF limits.
    RfhId, u16, RFH_MAX, Rfh
);

id_type!(
    /// Index of an MPU on a chip. Used by `SEND`/`RECV` message passing.
    MpuId, u16, MPU_MAX, Mpu
);

/// A jump target: the index of an instruction within a program binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineNum(pub u32);

impl LineNum {
    /// Largest line number representable in the 20-bit encoded field.
    pub const MAX: u32 = LINE_MAX;

    /// Returns the raw instruction index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LineNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", FieldKind::Line.spelling().0, self.0)
    }
}

impl From<u32> for LineNum {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<usize> for LineNum {
    fn from(v: usize) -> Self {
        Self(v as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_conventional_prefixes() {
        assert_eq!(RegId(3).to_string(), "r3");
        assert_eq!(VrfId(1).to_string(), "v1");
        assert_eq!(RfhId(7).to_string(), "h7");
        assert_eq!(MpuId(12).to_string(), "mpu12");
        assert_eq!(LineNum(99).to_string(), "@99");
    }

    #[test]
    fn encodable_bounds() {
        // The ISA table's fields are as wide as these.
        assert_eq!((RegId::MAX, VrfId::MAX, RfhId::MAX, MpuId::MAX), (63, 63, 31, 1023));
        assert_eq!(LineNum::MAX, (1 << 20) - 1);
    }

    #[test]
    fn conversions_roundtrip() {
        let r: RegId = 5u16.into();
        let raw: u16 = r.into();
        assert_eq!(raw, 5);
        assert_eq!(r.index(), 5);
        let l: LineNum = 17usize.into();
        assert_eq!(l.index(), 17);
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(RegId(1) < RegId(2));
        assert!(MpuId(0) < MpuId(1023));
    }
}
