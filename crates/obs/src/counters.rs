//! [`Counters`]: a record of monotone `u64` counters, walked from one
//! field list.
//!
//! A statistics record (`SimStats`, `MemStats`, `ChipStats`) is
//! subtracted between snapshots (region-of-interest runs) and written
//! to and read back from the result store. All three walks derive from
//! the record's one [`counters!`](crate::counters) list, so a counter
//! is added by adding it to its struct and to that list — and the
//! list destructures the struct exhaustively, so forgetting the second
//! step is a compile error, never a counter that silently subtracts or
//! reads back as zero.

use crate::{Event, Json, Reader};

/// A record of monotone `u64` counters.
pub trait Counters: Sized {
    /// Counter-wise `self − earlier`, saturating at 0: the counts of
    /// the region between two snapshots of the same run.
    fn delta(&self, earlier: &Self) -> Self;
    /// Exact JSON form: a `u64` is a number, an array of counters an
    /// array, a record an object with its fields in list order.
    fn to_json(&self) -> Json;
    /// Strict reader, the inverse of [`Counters::to_json`]: reads the
    /// value that comes next in `r`. A record's members may come in any
    /// order; of a name given twice the first counts and the rest are
    /// skipped, and so are names the record does not have, as
    /// [`Json::get`] would read them from a tree.
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field (outermost
    /// first, down to the leaf).
    fn read(r: &mut Reader<'_>) -> Result<Self, String>;

    /// [`Counters::read`] over a tree: reads `j`'s compact rendering.
    ///
    /// # Errors
    ///
    /// As [`Counters::read`].
    fn from_json(j: &Json) -> Result<Self, String> {
        let text = j.to_string();
        let mut r = Reader::new(&text);
        let v = Self::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Counters for u64 {
    fn delta(&self, earlier: &u64) -> u64 {
        self.saturating_sub(*earlier)
    }

    fn to_json(&self) -> Json {
        Json::U64(*self)
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<u64, String> {
        match r.next_event()? {
            Event::U64(v) => Ok(v),
            _ => Err("not a u64".to_string()),
        }
    }
}

impl<const N: usize> Counters for [u64; N] {
    fn delta(&self, earlier: &Self) -> Self {
        std::array::from_fn(|i| self[i].delta(&earlier[i]))
    }

    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(u64::to_json).collect())
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut out = [0u64; N];
        let len = r.array(|i, r| match out.get_mut(i) {
            Some(o) => u64::read(r).map(|v| *o = v).map_err(|e| format!("element {i}: {e}")),
            // Counted, so the error can say how long the array is.
            None => r.skip(),
        })?;
        if len != N {
            return Err(format!("array has {len} elements, want {N}"));
        }
        Ok(out)
    }
}

/// Implements [`Counters`] for a struct from its one field list.
///
/// `counters!(Type { a, b, c })` subtracts, writes and reads `a`, `b`,
/// `c` — each itself [`Counters`] — in that order; the list order is
/// the JSON member order. The list destructures `Type` exhaustively,
/// so a field missing from it (or named twice) fails to compile.
///
/// ```
/// use vr_obs::{counters, Counters, Json};
///
/// #[derive(Debug, Default, PartialEq)]
/// struct Hits {
///     loads: u64,
///     by_level: [u64; 3],
/// }
/// counters!(Hits { loads, by_level });
///
/// let now = Hits { loads: 9, by_level: [4, 3, 2] };
/// let then = Hits { loads: 5, by_level: [1, 1, 1] };
/// assert_eq!(now.delta(&then), Hits { loads: 4, by_level: [3, 2, 1] });
/// assert_eq!(now.to_json().to_string(), r#"{"loads":9,"by_level":[4,3,2]}"#);
/// assert_eq!(Hits::from_json(&now.to_json()), Ok(now));
/// ```
#[macro_export]
macro_rules! counters {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Counters for $ty {
            fn delta(&self, earlier: &Self) -> Self {
                let $ty { $($field),+ } = self;
                $ty { $($field: $crate::Counters::delta($field, &earlier.$field)),+ }
            }

            fn to_json(&self) -> $crate::Json {
                let $ty { $($field),+ } = self;
                $crate::Json::Obj(::std::vec![
                    $((::std::string::String::from(stringify!($field)), $crate::Counters::to_json($field))),+
                ])
            }

            fn read(
                r: &mut $crate::Reader<'_>,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                $(let mut $field = ::std::option::Option::None;)+
                r.object(|name, r| {
                    match name {
                        $(stringify!($field) if $field.is_none() => {
                            let v = $crate::Counters::read(r).map_err(|e| {
                                ::std::format!("field `{}`: {e}", stringify!($field))
                            })?;
                            $field = ::std::option::Option::Some(v);
                        })+
                        _ => r.skip()?,
                    }
                    ::std::result::Result::Ok(())
                })?;
                ::std::result::Result::Ok($ty {
                    $($field: $field.ok_or_else(|| {
                        ::std::format!("missing field `{}`", stringify!($field))
                    })?),+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: u64 = (1 << 53) + 1;

    fn round_trip<T: Counters + PartialEq + std::fmt::Debug>(v: T) {
        let j = v.to_json();
        for text in [j.to_string(), j.to_pretty()] {
            let parsed = Json::parse(&text).expect("self-emitted JSON parses");
            assert_eq!(T::from_json(&parsed).expect("reads back"), v, "{text}");
        }
    }

    #[test]
    fn u64_round_trips_exactly_and_rejects_non_integers() {
        for v in [0, 1, BIG, u64::MAX] {
            round_trip(v);
        }
        for bad in [Json::F64(1.5), Json::I64(-1), Json::Str("7".into()), Json::Null] {
            let err = u64::from_json(&bad).unwrap_err();
            assert!(err.contains("not a u64"), "{err}");
        }
    }

    #[test]
    fn arrays_round_trip_at_every_length() {
        round_trip([u64::MAX]);
        round_trip([BIG, u64::MAX, 0, 3]);
        round_trip([1, 2, 3, 4, 5, 6, 7, BIG, u64::MAX]);
    }

    #[test]
    fn arrays_reject_a_wrong_length_and_a_non_u64_element() {
        let four = [1u64, 2, 3, 4].to_json();
        let err = <[u64; 9]>::from_json(&four).unwrap_err();
        assert!(err.contains("4 elements, want 9"), "{err}");
        let err = <[u64; 1]>::from_json(&four).unwrap_err();
        assert!(err.contains("4 elements, want 1"), "{err}");
        let mixed =
            Json::Arr(vec![Json::U64(1), Json::Str("2".into()), Json::U64(3), Json::U64(4)]);
        let err = <[u64; 4]>::from_json(&mixed).unwrap_err();
        assert!(err.contains("element 1") && err.contains("not a u64"), "{err}");
        let err = <[u64; 4]>::from_json(&Json::U64(4)).unwrap_err();
        assert!(err.contains("not an array"), "{err}");
    }

    #[test]
    fn delta_subtracts_and_saturates_at_zero() {
        assert_eq!(9u64.delta(&4), 5);
        assert_eq!(4u64.delta(&9), 0);
        assert_eq!(u64::MAX.delta(&u64::MAX), 0);
        assert_eq!([5u64].delta(&[7]), [0]);
        assert_eq!([5u64, 5, 5, 5].delta(&[1, 2, 6, 0]), [4, 3, 0, 5]);
        let nine: [u64; 9] = std::array::from_fn(|i| i as u64);
        assert_eq!(nine.delta(&[4; 9]), [0, 0, 0, 0, 0, 1, 2, 3, 4]);
    }

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        leaf: u64,
    }
    counters!(Inner { leaf });

    #[derive(Debug, Default, PartialEq)]
    struct Outer {
        a: u64,
        inner: Inner,
        arr: [u64; 2],
    }
    counters!(Outer { a, inner, arr });

    #[test]
    fn records_nest_in_list_order_and_name_the_leaf_on_error() {
        let o = Outer { a: u64::MAX, inner: Inner { leaf: BIG }, arr: [1, 2] };
        assert_eq!(
            o.to_json().to_string(),
            format!(r#"{{"a":{},"inner":{{"leaf":{BIG}}},"arr":[1,2]}}"#, u64::MAX)
        );
        round_trip(o);
        let text = r#"{"a":1,"inner":{"leaf":true},"arr":[1,2]}"#;
        let err = Outer::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.contains("`inner`") && err.contains("`leaf`"), "{err}");
        let err = Outer::from_json(&Json::parse(r#"{"a":1,"arr":[1,2]}"#).unwrap()).unwrap_err();
        assert_eq!(err, "missing field `inner`");
        assert!(Outer::from_json(&Json::U64(1)).is_err());
    }
}
