//! Physical unit newtypes.
//!
//! The architecture models mix quantities that are all `f64` underneath
//! (decibels, milliwatts, square micrometers, nanometers, ...). Newtypes keep
//! them from being confused with each other ([C-NEWTYPE]) while staying free
//! to convert at the boundaries.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Returns the raw value of the quantity.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of two quantities.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// A power ratio or loss expressed in decibels.
    ///
    /// Insertion losses in the paper's Table III are given in dB; link budgets
    /// add them. Use [`Decibels::to_linear`] to convert to a transmission
    /// factor.
    Decibels,
    "dB"
);

unit_newtype!(
    /// Electrical or optical power in milliwatts.
    MilliWatts,
    "mW"
);

unit_newtype!(
    /// Electrical or optical power in watts.
    Watts,
    "W"
);

unit_newtype!(
    /// Energy in picojoules.
    PicoJoules,
    "pJ"
);

unit_newtype!(
    /// Energy in millijoules (the unit of the paper's Table V).
    MilliJoules,
    "mJ"
);

unit_newtype!(
    /// Chip area in square micrometers.
    SquareMicrometers,
    "um^2"
);

unit_newtype!(
    /// Chip area in square millimeters (the unit of the paper's Fig. 7).
    SquareMillimeters,
    "mm^2"
);

unit_newtype!(
    /// Wavelength in nanometers.
    Nanometers,
    "nm"
);

unit_newtype!(
    /// Frequency in gigahertz.
    GigaHertz,
    "GHz"
);

unit_newtype!(
    /// Frequency in terahertz (free spectral ranges are quoted in THz).
    TeraHertz,
    "THz"
);

unit_newtype!(
    /// Time in picoseconds (one photonic core cycle is 200 ps at 5 GHz).
    Picoseconds,
    "ps"
);

unit_newtype!(
    /// Time in milliseconds (the unit of the paper's latency results).
    Milliseconds,
    "ms"
);

impl Decibels {
    /// Converts a dB loss into a linear transmission factor in `(0, 1]` for
    /// positive dB values (and `>1` for gains).
    ///
    /// ```
    /// use lt_photonics::units::Decibels;
    /// let three_db = Decibels(3.0103);
    /// assert!((three_db.to_linear() - 0.5).abs() < 1e-4);
    /// ```
    pub fn to_linear(self) -> f64 {
        10f64.powf(-self.0 / 10.0)
    }

    /// Builds a dB quantity from a linear transmission factor.
    ///
    /// # Panics
    ///
    /// Panics if `linear` is not strictly positive.
    pub fn from_linear(linear: f64) -> Self {
        assert!(linear > 0.0, "linear transmission must be positive");
        Decibels(-10.0 * linear.log10())
    }
}

impl MilliWatts {
    /// Converts to watts.
    pub fn to_watts(self) -> Watts {
        Watts(self.0 / 1e3)
    }

    /// Converts an absolute power level to dBm.
    ///
    /// # Panics
    ///
    /// Panics if the power is not strictly positive.
    pub fn to_dbm(self) -> f64 {
        assert!(self.0 > 0.0, "power must be positive to express in dBm");
        10.0 * self.0.log10()
    }

    /// Builds a power level from dBm. `-25 dBm` (the paper's photodetector
    /// sensitivity) is about 3.16 uW.
    ///
    /// ```
    /// use lt_photonics::units::MilliWatts;
    /// let sens = MilliWatts::from_dbm(-25.0);
    /// assert!((sens.value() - 0.00316).abs() < 1e-4);
    /// ```
    pub fn from_dbm(dbm: f64) -> Self {
        MilliWatts(10f64.powf(dbm / 10.0))
    }
}

impl SquareMicrometers {
    /// Converts to square millimeters.
    pub fn to_mm2(self) -> SquareMillimeters {
        SquareMillimeters(self.0 / 1e6)
    }

    /// Builds an area from a rectangular footprint in micrometers.
    pub fn from_footprint(width_um: f64, height_um: f64) -> Self {
        SquareMicrometers(width_um * height_um)
    }
}

impl SquareMillimeters {
    /// Converts to square micrometers.
    pub fn to_um2(self) -> SquareMicrometers {
        SquareMicrometers(self.0 * 1e6)
    }
}

impl Picoseconds {
    /// Converts to seconds.
    pub fn to_seconds(self) -> f64 {
        self.0 * 1e-12
    }
}

impl Milliseconds {
    /// Converts to seconds.
    pub fn to_seconds(self) -> f64 {
        self.0 * 1e-3
    }

    /// Converts to picoseconds.
    pub fn to_ps(self) -> Picoseconds {
        Picoseconds(self.0 * 1e9)
    }
}

impl GigaHertz {
    /// Period of one cycle at this clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not strictly positive.
    pub fn period(self) -> Picoseconds {
        assert!(self.0 > 0.0, "frequency must be positive");
        Picoseconds(1e3 / self.0)
    }

    /// Converts to hertz.
    pub fn to_hz(self) -> f64 {
        self.0 * 1e9
    }
}

impl TeraHertz {
    /// Converts to hertz.
    pub fn to_hz(self) -> f64 {
        self.0 * 1e12
    }
}

/// Energy = power x time, in convenient units.
impl Mul<Picoseconds> for MilliWatts {
    type Output = PicoJoules;
    fn mul(self, rhs: Picoseconds) -> PicoJoules {
        // mW * ps = 1e-3 W * 1e-12 s = 1e-15 J = 1e-3 pJ
        PicoJoules(self.0 * rhs.0 * 1e-3)
    }
}

impl Mul<Milliseconds> for Watts {
    type Output = MilliJoules;
    fn mul(self, rhs: Milliseconds) -> MilliJoules {
        // W * ms = 1e-3 J = 1 mJ
        MilliJoules(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_round_trip() {
        for db in [0.0, 0.33, 0.95, 1.2, 3.0, 10.0, 28.0] {
            let lin = Decibels(db).to_linear();
            let back = Decibels::from_linear(lin);
            assert!((back.value() - db).abs() < 1e-9, "{db} dB round trip");
        }
    }

    #[test]
    fn zero_db_is_unity() {
        assert_eq!(Decibels(0.0).to_linear(), 1.0);
    }

    #[test]
    fn dbm_reference_points() {
        assert!((MilliWatts::from_dbm(0.0).value() - 1.0).abs() < 1e-12);
        assert!((MilliWatts::from_dbm(10.0).value() - 10.0).abs() < 1e-9);
        assert!((MilliWatts(1.0).to_dbm() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn energy_units_compose() {
        // 1 mW for 200 ps = 0.2 pJ.
        let e = MilliWatts(1.0) * Picoseconds(200.0);
        assert!((e.value() - 0.2).abs() < 1e-12);
        // 1 W for 1 ms = 1 mJ.
        let e = Watts(1.0) * Milliseconds(1.0);
        assert!((e.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clock_period() {
        let p = GigaHertz(5.0).period();
        assert!((p.value() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn area_conversion() {
        let a = SquareMicrometers(11_000.0).to_mm2();
        assert!((a.value() - 0.011).abs() < 1e-12);
        let back = a.to_um2();
        assert!((back.value() - 11_000.0).abs() < 1e-9);
    }

    #[test]
    fn unit_sums_and_arithmetic() {
        let total: Decibels = [Decibels(0.33), Decibels(0.95), Decibels(1.2)]
            .into_iter()
            .sum();
        assert!((total.value() - 2.48).abs() < 1e-12);
        assert_eq!(Decibels(2.0) + Decibels(1.0), Decibels(3.0));
        assert_eq!(Decibels(2.0) - Decibels(1.0), Decibels(1.0));
        assert_eq!(Decibels(2.0) * 3.0, Decibels(6.0));
        assert_eq!(Decibels(6.0) / 3.0, Decibels(2.0));
        assert!((Decibels(6.0) / Decibels(3.0) - 2.0).abs() < 1e-12);
        assert_eq!(-Decibels(1.5), Decibels(-1.5));
        assert_eq!(Decibels(-1.5).abs(), Decibels(1.5));
        assert_eq!(Decibels(1.0).max(Decibels(2.0)), Decibels(2.0));
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{:.2}", Decibels(1.234)), "1.23 dB");
        assert_eq!(format!("{}", MilliWatts(3.0)), "3 mW");
    }

    #[test]
    fn latency_conversions() {
        let cycle = Picoseconds(200.0);
        assert!((cycle.to_seconds() - 200e-12).abs() < 1e-24);
        let ms = Milliseconds(1.94e-2);
        assert!((ms.to_seconds() - 1.94e-5).abs() < 1e-12);
        assert!((ms.to_ps().value() - 1.94e7).abs() < 1e-3);
    }
}
