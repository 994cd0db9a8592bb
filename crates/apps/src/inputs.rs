//! Deterministic input generators shared by the benchmark applications.

use paraprox_prng::Rng;

/// A seeded RNG for reproducible inputs.
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// `n` uniform floats in `[lo, hi)`.
pub fn uniform_f32(rng: &mut Rng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(lo..hi)).collect()
}

/// `n` uniform floats in the *open* interval `(0, 1)` — safe to take logs.
pub fn uniform_open01(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| rng.random_range(1e-6f32..1.0 - 1e-6))
        .collect()
}

/// `n` uniform integers in `[lo, hi)`.
pub fn uniform_i32(rng: &mut Rng, n: usize, lo: i32, hi: i32) -> Vec<i32> {
    (0..n).map(|_| rng.random_range(lo..hi)).collect()
}

/// A random permutation of `0..n` (for gather index buffers).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<i32> {
    let mut idx: Vec<i32> = (0..n as i32).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// A `w`×`h` grayscale image (row-major, values in `[0, 255]`) with strong
/// spatial correlation: a sum of random low-frequency sinusoids plus mild
/// per-pixel noise. This reproduces the value-locality statistics that the
/// paper's Figure 5 measures on natural images — most pixels differ from
/// their neighbors by less than 10%.
pub fn smooth_image(rng: &mut Rng, w: usize, h: usize) -> Vec<f32> {
    // Random low frequencies and phases.
    let waves: [(f32, f32, f32, f32, f32); 4] = std::array::from_fn(|_| {
        (
            rng.random_range(0.01f32..0.08), // fx
            rng.random_range(0.01f32..0.08), // fy
            rng.random_range(0.0f32..std::f32::consts::TAU),
            rng.random_range(0.0f32..std::f32::consts::TAU),
            rng.random_range(0.2f32..1.0), // amplitude
        )
    });
    let amp_total: f32 = waves.iter().map(|wv| wv.4).sum();
    let mut img = Vec::with_capacity(w * h);
    // Each wave is separable: its sine depends on the column only and its
    // cosine on the row only, so each is computed once per column or row.
    let sin_x: Vec<[f32; 4]> = (0..w)
        .map(|x| waves.map(|(fx, _, px, _, _)| (x as f32 * fx + px).sin()))
        .collect();
    for y in 0..h {
        let cos_y = waves.map(|(_, fy, _, py, _)| (y as f32 * fy + py).cos());
        for sin in &sin_x {
            let mut v = 0.0f32;
            for ((wave, sin), cos) in waves.iter().zip(sin).zip(cos_y) {
                v += wave.4 * (sin + cos);
            }
            // Normalize to [0,1], add mild noise, scale to [0,255].
            let norm = (v / (2.0 * amp_total) + 0.5).clamp(0.0, 1.0);
            let noise = rng.random_range(-0.01f32..0.01);
            img.push(((norm + noise).clamp(0.0, 1.0)) * 255.0);
        }
    }
    img
}

/// Mean percent difference of each pixel to its 8 neighbors (interior
/// pixels only) — the statistic the paper's Figure 5 histograms.
pub fn neighbor_percent_differences(img: &[f32], w: usize, h: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let c = f64::from(img[y * w + x]);
            let mut total = 0.0;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dy == 0 && dx == 0 {
                        continue;
                    }
                    let n =
                        f64::from(img[((y as i64 + dy) as usize) * w + (x as i64 + dx) as usize]);
                    total += (c - n).abs() / c.abs().max(1.0);
                }
            }
            out.push(100.0 * total / 8.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = uniform_f32(&mut rng(3), 16, 0.0, 1.0);
        let b = uniform_f32(&mut rng(3), 16, 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn open01_avoids_endpoints() {
        let v = uniform_open01(&mut rng(1), 1000);
        assert!(v.iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(&mut rng(2), 64);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<i32>>());
    }

    #[test]
    fn smooth_images_have_the_fig5_locality_property() {
        // The paper: >70% of pixels differ <10% from their neighbors.
        let img = smooth_image(&mut rng(4), 64, 64);
        let diffs = neighbor_percent_differences(&img, 64, 64);
        let under_10 = diffs.iter().filter(|&&d| d < 10.0).count();
        let frac = under_10 as f64 / diffs.len() as f64;
        assert!(frac > 0.7, "only {:.0}% of pixels are local", frac * 100.0);
    }

    /// `smooth_image` as a direct per-pixel loop, 8 transcendentals per
    /// pixel: the reference the tabulated version must match bit for bit.
    fn smooth_image_per_pixel(rng: &mut Rng, w: usize, h: usize) -> Vec<f32> {
        let waves: Vec<(f32, f32, f32, f32, f32)> = (0..4)
            .map(|_| {
                (
                    rng.random_range(0.01f32..0.08),
                    rng.random_range(0.01f32..0.08),
                    rng.random_range(0.0f32..std::f32::consts::TAU),
                    rng.random_range(0.0f32..std::f32::consts::TAU),
                    rng.random_range(0.2f32..1.0),
                )
            })
            .collect();
        let amp_total: f32 = waves.iter().map(|wv| wv.4).sum();
        let mut img = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let mut v = 0.0f32;
                for &(fx, fy, px, py, a) in &waves {
                    v += a * ((x as f32 * fx + px).sin() + (y as f32 * fy + py).cos());
                }
                let norm = (v / (2.0 * amp_total) + 0.5).clamp(0.0, 1.0);
                let noise = rng.random_range(-0.01f32..0.01);
                img.push(((norm + noise).clamp(0.0, 1.0)) * 255.0);
            }
        }
        img
    }

    #[test]
    fn tabulated_smooth_image_is_bit_identical_to_the_per_pixel_loop() {
        for seed in [0u64, 4, 17, 0x5EED] {
            for (w, h) in [(1, 1), (64, 64), (37, 11), (8, 96)] {
                let bits = |img: Vec<f32>| img.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                assert_eq!(
                    bits(smooth_image(&mut rng(seed), w, h)),
                    bits(smooth_image_per_pixel(&mut rng(seed), w, h)),
                    "seed {seed}, {w}x{h}"
                );
            }
        }
    }

    #[test]
    fn image_values_in_range() {
        let img = smooth_image(&mut rng(5), 32, 32);
        assert!(img.iter().all(|&v| (0.0..=255.0).contains(&v)));
        assert_eq!(img.len(), 32 * 32);
    }
}
