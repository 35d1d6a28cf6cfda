//! Media kernels: the work-unit forms of thumbnailing and GIF assembly.
//!
//! Backs two IO-heavy Python benchmarks (Table 3): `Thumbnailer`
//! ("generate a thumbnail of an image") and `Video` ("add a watermark and
//! generate gif of a video file"). Pixel-operation counts over synthetic
//! RGB bitmaps (three byte draws a pixel) are the (modest) JIT work units
//! — these benchmarks are dominated by IO in the paper. The reference
//! pipelines are the test oracle in `tests/oracle/media.rs`.

use rand::Rng;

/// Leaves `rng` where drawing a random `width × height` image leaves it: past `3·w·h` draws of one generator step each, jumped over.
pub fn skip_random_image<R: Rng + ?Sized>(rng: &mut R, width: usize, height: usize) {
    rng.discard(3 * (width * height) as u64);
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

/// The counters the reference box-filter thumbnail returns for a
/// `src_w × src_h` source, without reading a pixel. When the target is no larger than the
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

/// What the reference GIF pipeline (a 50% watermark blend, then a
/// 216-colour quantization of every pixel) returns for `frames` frames of
/// `width × height` and a `mark_w × mark_h` mark, without touching a
/// pixel: per frame, the
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
#[path = "../../tests/oracle/media.rs"]
mod tests;
