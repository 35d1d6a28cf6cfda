//! The reference dense matrix and its product.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix with uniform random entries in `[-1, 1)`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Matrix product, returning the result and the multiply-add count.
    ///
    /// Returns `None` when dimensions are incompatible.
    pub fn multiply(&self, other: &Matrix) -> Option<(Matrix, usize)> {
        if self.cols != other.rows {
            return None;
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        let mut flops = 0usize;
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    flops += other.cols;
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                    flops += 1;
                }
            }
        }
        Some((out, flops))
    }
}

#[test]
fn identity_is_multiplicative_unit() {
    let mut rng = SmallRng::seed_from_u64(1);
    let a = Matrix::random(&mut rng, 8, 8);
    let (prod, _) = a.multiply(&Matrix::identity(8)).unwrap();
    for i in 0..8 {
        for j in 0..8 {
            assert!((prod.get(i, j) - a.get(i, j)).abs() < 1e-12);
        }
    }
}

#[test]
fn known_product_is_correct() {
    let mut a = Matrix::zeros(2, 3);
    let mut b = Matrix::zeros(3, 2);
    // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
    for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
        a.data[i] = *v;
    }
    for (i, v) in [7.0, 8.0, 9.0, 10.0, 11.0, 12.0].iter().enumerate() {
        b.data[i] = *v;
    }
    let (p, flops) = a.multiply(&b).unwrap();
    assert_eq!((p.rows, p.cols), (2, 2));
    assert_eq!(p.get(0, 0), 58.0);
    assert_eq!(p.get(0, 1), 64.0);
    assert_eq!(p.get(1, 0), 139.0);
    assert_eq!(p.get(1, 1), 154.0);
    assert_eq!(flops, 2 * 3 * 2);
}

#[test]
fn incompatible_dimensions_return_none() {
    let a = Matrix::zeros(2, 3);
    let b = Matrix::zeros(2, 3);
    assert!(a.multiply(&b).is_none());
}

#[test]
fn flops_scale_cubically() {
    let mut rng = SmallRng::seed_from_u64(2);
    let a = Matrix::random(&mut rng, 10, 10);
    let b = Matrix::random(&mut rng, 20, 20);
    let (_, fa) = a.multiply(&a).unwrap();
    let (_, fb) = b.multiply(&b).unwrap();
    assert_eq!(fa, 1000);
    assert_eq!(fb, 8000);
}
