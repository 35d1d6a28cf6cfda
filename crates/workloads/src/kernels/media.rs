//! Media kernels: synthetic images, thumbnailing, watermarking, and GIF
//! frame assembly.
//!
//! Backs three IO-heavy Python benchmarks (Table 3): `Thumbnailer`
//! ("generate a thumbnail of an image"), `Video` ("add a watermark and
//! generate gif of a video file"), and indirectly `Uploader`. Images are
//! synthetic RGB bitmaps; the pixel-operation counts are the (modest) JIT
//! work units — these benchmarks are dominated by IO in the paper, and the
//! compute share here is deliberately small for the same reason.

use rand::Rng;

/// An RGB bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    /// Row-major RGB triples.
    pixels: Vec<[u8; 3]>,
}

impl Image {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Image {
        Image {
            width,
            height,
            pixels: vec![[0, 0, 0]; width * height],
        }
    }

    /// Creates an image of random noise.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, width: usize, height: usize) -> Image {
        Image {
            width,
            height,
            pixels: (0..width * height)
                .map(|_| [rng.gen(), rng.gen(), rng.gen()])
                .collect(),
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor (row-major).
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        self.pixels[y * self.width + x]
    }

    /// Pixel mutator.
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        self.pixels[y * self.width + x] = rgb;
    }
}

/// Makes the draws [`Image::random`] makes for a `width × height` image,
/// without keeping them.
pub fn skip_random_image<R: Rng + ?Sized>(rng: &mut R, width: usize, height: usize) {
    for _ in 0..3 * width * height {
        let _: u8 = rng.gen();
    }
}

/// Work counters for media operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MediaStats {
    /// Source pixels read.
    pub pixels_read: usize,
    /// Destination pixels written.
    pub pixels_written: usize,
    /// Frames processed (video path).
    pub frames: usize,
}

/// Downscales `src` to `(out_w, out_h)` with box filtering.
///
/// Returns `None` for degenerate target sizes or upscaling requests.
pub fn thumbnail(src: &Image, out_w: usize, out_h: usize) -> Option<(Image, MediaStats)> {
    if out_w == 0 || out_h == 0 || out_w > src.width || out_h > src.height {
        return None;
    }
    let mut out = Image::new(out_w, out_h);
    let mut stats = MediaStats::default();
    for oy in 0..out_h {
        let y0 = oy * src.height / out_h;
        let y1 = ((oy + 1) * src.height / out_h).max(y0 + 1);
        for ox in 0..out_w {
            let x0 = ox * src.width / out_w;
            let x1 = ((ox + 1) * src.width / out_w).max(x0 + 1);
            let mut acc = [0u32; 3];
            let mut count = 0u32;
            for y in y0..y1 {
                for x in x0..x1 {
                    let p = src.get(x, y);
                    acc[0] += u32::from(p[0]);
                    acc[1] += u32::from(p[1]);
                    acc[2] += u32::from(p[2]);
                    count += 1;
                    stats.pixels_read += 1;
                }
            }
            out.set(
                ox,
                oy,
                [
                    (acc[0] / count) as u8,
                    (acc[1] / count) as u8,
                    (acc[2] / count) as u8,
                ],
            );
            stats.pixels_written += 1;
        }
    }
    Some((out, stats))
}

/// The counters [`thumbnail`] returns for a `src_w × src_h` source,
/// without reading a pixel. When the target is no larger than the
/// source, the box-filter windows partition it: every source pixel is
/// read once and every target pixel written once.
pub fn thumbnail_stats(
    src_w: usize,
    src_h: usize,
    out_w: usize,
    out_h: usize,
) -> Option<MediaStats> {
    if out_w == 0 || out_h == 0 || out_w > src_w || out_h > src_h {
        return None;
    }
    Some(MediaStats {
        pixels_read: src_w * src_h,
        pixels_written: out_w * out_h,
        frames: 0,
    })
}

/// Alpha-blends `mark` onto `frame` at `(x, y)` with 50% opacity.
pub fn watermark(frame: &mut Image, mark: &Image, x: usize, y: usize) -> MediaStats {
    let mut stats = MediaStats::default();
    for my in 0..mark.height {
        for mx in 0..mark.width {
            let (fx, fy) = (x + mx, y + my);
            if fx >= frame.width || fy >= frame.height {
                continue;
            }
            let m = mark.get(mx, my);
            let f = frame.get(fx, fy);
            let blended = [
                ((u16::from(f[0]) + u16::from(m[0])) / 2) as u8,
                ((u16::from(f[1]) + u16::from(m[1])) / 2) as u8,
                ((u16::from(f[2]) + u16::from(m[2])) / 2) as u8,
            ];
            frame.set(fx, fy, blended);
            stats.pixels_read += 2;
            stats.pixels_written += 1;
        }
    }
    stats
}

/// Watermarks `frames` and quantizes each to a 216-color web palette — the
/// "add a watermark and generate gif" pipeline. Returns total pseudo-GIF
/// bytes and the combined work counters.
pub fn gif_pipeline(frames: &mut [Image], mark: &Image) -> (usize, MediaStats) {
    let mut stats = MediaStats::default();
    let mut bytes = 0usize;
    for frame in frames.iter_mut() {
        let w = watermark(frame, mark, 4, 4);
        stats.pixels_read += w.pixels_read;
        stats.pixels_written += w.pixels_written;
        // 6-level-per-channel quantization (web-safe palette).
        for y in 0..frame.height {
            for x in 0..frame.width {
                let p = frame.get(x, y);
                let q = [
                    (u16::from(p[0]) * 5 / 255 * 51) as u8,
                    (u16::from(p[1]) * 5 / 255 * 51) as u8,
                    (u16::from(p[2]) * 5 / 255 * 51) as u8,
                ];
                frame.set(x, y, q);
                stats.pixels_read += 1;
                stats.pixels_written += 1;
            }
        }
        // One palette index per pixel plus a small frame header.
        bytes += frame.width * frame.height + 16;
        stats.frames += 1;
    }
    (bytes, stats)
}

/// What [`gif_pipeline`] returns for `frames` frames of `width × height`
/// and a `mark_w × mark_h` mark, without touching a pixel: per frame, the
/// part of the mark inside the frame (it sits at `(4, 4)`) is read twice
/// and written once, then every pixel is quantized once, and the frame
/// encodes to one byte per pixel plus a 16-byte header.
pub fn gif_pipeline_stats(
    frames: usize,
    width: usize,
    height: usize,
    mark_w: usize,
    mark_h: usize,
) -> (usize, MediaStats) {
    let blended = mark_w.min(width.saturating_sub(4)) * mark_h.min(height.saturating_sub(4));
    let pixels = width * height;
    let stats = MediaStats {
        pixels_read: frames * (2 * blended + pixels),
        pixels_written: frames * (blended + pixels),
        frames,
    };
    (frames * (pixels + 16), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn thumbnail_has_requested_size() {
        let mut rng = SmallRng::seed_from_u64(1);
        let src = Image::random(&mut rng, 64, 48);
        let (thumb, stats) = thumbnail(&src, 16, 12).unwrap();
        assert_eq!(thumb.width(), 16);
        assert_eq!(thumb.height(), 12);
        assert_eq!(stats.pixels_written, 16 * 12);
        assert_eq!(stats.pixels_read, 64 * 48);
    }

    #[test]
    fn thumbnail_of_uniform_image_is_uniform() {
        let mut src = Image::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                src.set(x, y, [100, 150, 200]);
            }
        }
        let (thumb, _) = thumbnail(&src, 8, 8).unwrap();
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(thumb.get(x, y), [100, 150, 200]);
            }
        }
    }

    #[test]
    fn thumbnail_rejects_degenerate_targets() {
        let src = Image::new(10, 10);
        assert!(thumbnail(&src, 0, 5).is_none());
        assert!(thumbnail(&src, 20, 5).is_none());
    }

    #[test]
    fn watermark_blends_in_bounds_only() {
        let mut frame = Image::new(8, 8);
        let mut mark = Image::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                mark.set(x, y, [200, 200, 200]);
            }
        }
        let stats = watermark(&mut frame, &mark, 6, 6); // half off-frame
        assert_eq!(stats.pixels_written, 4);
        assert_eq!(frame.get(6, 6), [100, 100, 100]);
        assert_eq!(frame.get(0, 0), [0, 0, 0]);
    }

    #[test]
    fn gif_pipeline_processes_every_frame() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut frames: Vec<Image> = (0..5).map(|_| Image::random(&mut rng, 20, 10)).collect();
        let mark = Image::random(&mut rng, 4, 4);
        let (bytes, stats) = gif_pipeline(&mut frames, &mark);
        assert_eq!(stats.frames, 5);
        assert_eq!(bytes, 5 * (20 * 10 + 16));
        // Every channel value must be on the web-safe lattice.
        for f in &frames {
            for y in 0..f.height() {
                for x in 0..f.width() {
                    for c in f.get(x, y) {
                        assert_eq!(c % 51, 0, "non-quantized channel {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn work_scales_with_image_size() {
        let mut rng = SmallRng::seed_from_u64(3);
        let small = Image::random(&mut rng, 16, 16);
        let large = Image::random(&mut rng, 64, 64);
        let (_, s) = thumbnail(&small, 8, 8).unwrap();
        let (_, l) = thumbnail(&large, 8, 8).unwrap();
        assert!(l.pixels_read > s.pixels_read);
    }
}
