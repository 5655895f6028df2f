//! Simulation time.
//!
//! Every event in the study is dated: when a link was added to an article,
//! when each archived copy was captured, when IABot marked the link dead,
//! when we re-checked it (Figure 2's timeline). [`SimTime`] is seconds since
//! the Unix epoch; [`Date`] converts to and from the civil calendar using
//! Howard Hinnant's `days_from_civil` algorithm, so "March 2022" in the
//! paper maps to a concrete tick range here.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in seconds. Negative durations are allowed
/// (they arise from subtracting timestamps) but constructors produce
/// non-negative spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub i64);

impl Duration {
    pub const fn seconds(s: i64) -> Self {
        Duration(s)
    }
    pub const fn minutes(m: i64) -> Self {
        Duration(m * 60)
    }
    pub const fn hours(h: i64) -> Self {
        Duration(h * 3600)
    }
    pub const fn days(d: i64) -> Self {
        Duration(d * 86_400)
    }
    pub const fn weeks(w: i64) -> Self {
        Duration(w * 7 * 86_400)
    }
    /// Calendar-agnostic "year" of 365 days — adequate for the multi-year
    /// gaps the paper plots on a log axis.
    pub const fn years(y: i64) -> Self {
        Duration(y * 365 * 86_400)
    }

    pub const fn as_seconds(self) -> i64 {
        self.0
    }
    /// Whole days, truncated toward zero.
    pub const fn as_days(self) -> i64 {
        self.0 / 86_400
    }
    /// Days as a float — what Figure 5's log-scale x-axis plots.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

/// An instant of simulated time: seconds since 1970-01-01T00:00:00Z.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub i64);

impl SimTime {
    pub const EPOCH: SimTime = SimTime(0);

    pub const fn from_unix(secs: i64) -> Self {
        SimTime(secs)
    }

    /// Midnight UTC on the given civil date.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        SimTime(days_from_civil(year, month, day) * 86_400)
    }

    pub const fn as_unix(self) -> i64 {
        self.0
    }

    pub fn date(self) -> Date {
        let days = self.0.div_euclid(86_400);
        let (year, month, day) = civil_from_days(days);
        Date { year, month, day }
    }

    pub fn year(self) -> i32 {
        self.date().year
    }

    /// Fractional years since the epoch — used for CDF x-axes over posting
    /// dates (Figure 3c).
    pub fn as_year_f64(self) -> f64 {
        1970.0 + self.0 as f64 / (365.2425 * 86_400.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let secs = self.0.rem_euclid(86_400);
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            d.year,
            d.month,
            d.day,
            secs / 3600,
            (secs % 3600) / 60,
            secs % 60
        )
    }
}

/// A civil (Gregorian, proleptic) calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    pub year: i32,
    pub month: u32,
    pub day: u32,
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    debug_assert!((1..=12).contains(&m), "month {m}");
    debug_assert!((1..=31).contains(&d), "day {d}");
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(SimTime::from_ymd(1970, 1, 1), SimTime(0));
        let d = SimTime(0).date();
        assert_eq!((d.year, d.month, d.day), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // the paper's study month
        assert_eq!(SimTime::from_ymd(2022, 3, 1).as_unix(), 1_646_092_800);
        // leap day
        assert_eq!(
            SimTime::from_ymd(2020, 2, 29) + Duration::days(1),
            SimTime::from_ymd(2020, 3, 1)
        );
        // non-leap century year
        assert_eq!(
            SimTime::from_ymd(1900, 2, 28) + Duration::days(1),
            SimTime::from_ymd(1900, 3, 1)
        );
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_ymd(2022, 3, 15) + Duration::hours(13) + Duration::minutes(5);
        assert_eq!(t.to_string(), "2022-03-15T13:05:00Z");
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimTime::from_ymd(2015, 6, 1);
        let b = SimTime::from_ymd(2018, 6, 1);
        assert_eq!((b - a).as_days(), 1096); // 2016 is a leap year
        assert!(!(b - a).is_negative());
        assert!((a - b).is_negative());
        assert_eq!(a + (b - a), b);
    }

    #[test]
    fn year_accessor() {
        assert_eq!(SimTime::from_ymd(2009, 9, 30).year(), 2009);
        let y = SimTime::from_ymd(2015, 7, 1).as_year_f64();
        assert!((y - 2015.5).abs() < 0.01, "{y}");
    }

    #[test]
    fn negative_times_before_epoch() {
        let t = SimTime::from_ymd(1969, 12, 31);
        assert_eq!(t.as_unix(), -86_400);
        let d = t.date();
        assert_eq!((d.year, d.month, d.day), (1969, 12, 31));
    }

    proptest! {
        #[test]
        fn civil_round_trip(days in -200_000i64..200_000) {
            let (y, m, d) = civil_from_days(days);
            prop_assert_eq!(days_from_civil(y, m, d), days);
            prop_assert!((1..=12u32).contains(&m));
            prop_assert!((1..=31u32).contains(&d));
        }

        #[test]
        fn date_ordering_matches_time_ordering(a in -200_000i64..200_000, b in -200_000i64..200_000) {
            let ta = SimTime(a * 86_400);
            let tb = SimTime(b * 86_400);
            prop_assert_eq!(ta.cmp(&tb), ta.date().cmp(&tb.date()));
        }
    }
}
