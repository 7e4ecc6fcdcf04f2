//! Sequential stand-in for the subset of `rayon` the repository uses: the
//! "parallel" iterators are the ordinary `std` ones, so every adaptor chain
//! (`enumerate`, `map`, `collect`, …) runs on the calling thread in order.
//! `current_num_threads()` is 1, which is what chunk-size heuristics see.

/// Always 1: there is no pool.
pub fn current_num_threads() -> usize {
    1
}

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
}

pub mod iter {
    pub trait IntoParallelIterator {
        type Iter: Iterator<Item = Self::Item>;
        type Item;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I {
        type Iter = I::IntoIter;
        type Item = I::Item;
        fn into_par_iter(self) -> I::IntoIter {
            self.into_iter()
        }
    }

    pub trait IntoParallelRefIterator<'a> {
        type Iter: Iterator<Item = Self::Item>;
        type Item: 'a;
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
    {
        type Iter = <&'a C as IntoIterator>::IntoIter;
        type Item = <&'a C as IntoIterator>::Item;
        fn par_iter(&'a self) -> Self::Iter {
            self.into_iter()
        }
    }

    pub trait IntoParallelRefMutIterator<'a> {
        type Iter: Iterator<Item = Self::Item>;
        type Item: 'a;
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
    where
        &'a mut C: IntoIterator,
    {
        type Iter = <&'a mut C as IntoIterator>::IntoIter;
        type Item = <&'a mut C as IntoIterator>::Item;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn adaptors_run_in_order_on_one_thread() {
        assert_eq!(super::current_num_threads(), 1);
        let squares: Vec<usize> = (0..5).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, [0, 1, 4, 9, 16]);

        let mut bufs = vec![vec![0u8; 2]; 3];
        let lens: Vec<(usize, usize)> = bufs[..2]
            .par_iter_mut()
            .enumerate()
            .map(|(i, b)| {
                b[0] = i as u8 + 1;
                (i, b.len())
            })
            .collect();
        assert_eq!(lens, [(0, 2), (1, 2)]);
        assert_eq!(bufs, [vec![1, 0], vec![2, 0], vec![0, 0]]);

        let total: u32 = [1u32, 2, 3].par_iter().sum();
        assert_eq!(total, 6);
    }
}
