//! Plain-text rendering of experiment results: ASCII tables, box plots,
//! violins and scatter sketches, plus CSV export for external plotting.
//!
//! [`write_csv_line`] is the single CSV serializer: every CSV path
//! ([`records_to_csv`], [`record_to_csv_line`], the streaming
//! [`crate::grid::Grid::run_csv`] and the experiments' row artifacts)
//! appends records through it, without `core::fmt`. Its decimal writer
//! also backs countd's record encoding
//! ([`crate::wire::encode_record_into`]).

use counterlab_stats::boxplot::BoxPlot;
use counterlab_stats::kde::Kde;

use crate::measure::Record;

/// Renders a table: header row plus aligned data rows.
///
/// # Examples
///
/// ```
/// let t = counterlab::report::table(
///     &["tool", "median"],
///     &[vec!["pm".into(), "726".into()], vec!["pc".into(), "163".into()]],
/// );
/// assert!(t.contains("pm"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    // An empty header would make the separator width `2 * (cols - 1)`
    // underflow; there is nothing sensible to align against, so the
    // table is empty.
    if header.is_empty() {
        return String::new();
    }
    // Rows may carry more cells than the header names: every column that
    // appears anywhere gets its own width so no row can index past the
    // computed widths.
    let cols = header
        .len()
        .max(rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut widths = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        widths[i] = h.len();
    }
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Narrowest box plot that can still show all five markers side by side
/// (`|[ : ]|` plus a little slack); narrower requests are widened to it.
const MIN_BOXPLOT_WIDTH: usize = 8;

/// Renders one labeled box plot as a text line scaled into `[lo, hi]`:
/// whiskers `|---[ box ]---|` with the median marked `:`. Widths below
/// `MIN_BOXPLOT_WIDTH` (notably `0`, which has no cell to put any
/// marker in) are clamped up to it.
pub fn boxplot_line(label: &str, bp: &BoxPlot, lo: f64, hi: f64, width: usize) -> String {
    let width = width.max(MIN_BOXPLOT_WIDTH);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let pos = |v: f64| -> usize {
        (((v - lo) / span) * (width.saturating_sub(1)) as f64)
            .round()
            .clamp(0.0, (width - 1) as f64) as usize
    };
    let mut cells = vec![' '; width];
    let (wl, q1, med, q3, wh) = (
        pos(bp.lower_whisker()),
        pos(bp.q1()),
        pos(bp.median()),
        pos(bp.q3()),
        pos(bp.upper_whisker()),
    );
    for c in cells.iter_mut().take(q1).skip(wl) {
        *c = '-';
    }
    for c in cells.iter_mut().take(wh + 1).skip(q3) {
        *c = '-';
    }
    for c in cells.iter_mut().take(q3 + 1).skip(q1) {
        *c = '=';
    }
    cells[wl] = '|';
    cells[wh] = '|';
    cells[q1] = '[';
    cells[q3] = ']';
    cells[med] = ':';
    for &o in bp.outliers() {
        let p = pos(o);
        if cells[p] == ' ' {
            cells[p] = 'o';
        }
    }
    format!("{label:<28} {}", cells.into_iter().collect::<String>())
}

/// Renders a violin (KDE silhouette) as vertical ASCII art: one row per
/// trace point, bar length proportional to density.
pub fn violin_text(kde: &Kde, rows: usize, width: usize) -> String {
    let trace = kde.trace(rows).unwrap_or_default();
    let dmax = trace
        .iter()
        .map(|&(_, d)| d)
        .fold(f64::MIN_POSITIVE, f64::max);
    let mut out = String::new();
    for (x, d) in trace {
        let bars = ((d / dmax) * width as f64).round() as usize;
        out.push_str(&format!("{x:>14.1} |{}\n", "#".repeat(bars)));
    }
    out
}

/// Sketches a scatter plot: `points` are `(x, y)`; the canvas is
/// `width × height` characters with `*` marks.
pub fn scatter_text(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return String::from("(no data)\n");
    }
    let (mut xlo, mut xhi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ylo, mut yhi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        xlo = xlo.min(x);
        xhi = xhi.max(x);
        ylo = ylo.min(y);
        yhi = yhi.max(y);
    }
    if xhi == xlo {
        xhi = xlo + 1.0;
    }
    if yhi == ylo {
        yhi = ylo + 1.0;
    }
    let mut canvas = vec![vec![' '; width]; height];
    for &(x, y) in points {
        let cx = (((x - xlo) / (xhi - xlo)) * (width - 1) as f64).round() as usize;
        let cy = (((y - ylo) / (yhi - ylo)) * (height - 1) as f64).round() as usize;
        canvas[height - 1 - cy][cx] = '*';
    }
    let mut out = String::new();
    out.push_str(&format!("y: {ylo:.3e} .. {yhi:.3e}\n"));
    for row in canvas {
        out.push('|');
        out.push_str(&row.into_iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("x: {xlo:.3e} .. {xhi:.3e}\n"));
    out
}

/// Serializes records as CSV (one row per measurement).
pub fn records_to_csv(records: &[Record]) -> String {
    let mut out = String::from(CSV_HEADER);
    for r in records {
        write_csv_line(&mut out, r);
    }
    out
}

/// The header line shared by [`records_to_csv`] and the streaming CSV
/// path ([`crate::grid::Grid::run_csv`]).
pub const CSV_HEADER: &str =
    "processor,interface,pattern,opt_level,counters,tsc,mode,event,benchmark,iters,measured,expected,error\n";

/// Initial capacity of a buffer meant to hold one CSV or wire line:
/// enough for every record the grids produce, so a line buffer is
/// allocated once and never grows.
pub(crate) const LINE_CAPACITY: usize = 128;

/// One record's CSV line (newline-terminated), exactly as
/// [`records_to_csv`] serializes it. Allocates a fresh `String`; loops
/// should reuse one buffer with [`write_csv_line`] instead.
pub fn record_to_csv_line(r: &Record) -> String {
    let mut line = String::with_capacity(LINE_CAPACITY);
    write_csv_line(&mut line, r);
    line
}

/// Appends one record's CSV line (newline-terminated) to `out`.
///
/// This is the single CSV serializer: [`records_to_csv`],
/// [`record_to_csv_line`] and [`crate::grid::Grid::run_csv`] all write
/// through it. Fields are the enums' `&'static str` codes and decimal
/// integers written without `core::fmt`, so a line costs no allocation
/// once `out` has room for it.
pub fn write_csv_line(out: &mut String, r: &Record) {
    let c = &r.config;
    for code in [c.processor.code(), c.interface.code(), c.pattern.code()] {
        out.push_str(code);
        out.push(',');
    }
    push_u64(out, c.opt_level.level());
    out.push(',');
    push_usize(out, c.counters);
    out.push_str(if c.tsc_on { ",true," } else { ",false," });
    for code in [c.mode.label(), c.event.name(), r.benchmark.name()] {
        out.push_str(code);
        out.push(',');
    }
    for n in [r.benchmark.iterations(), r.measured, r.expected] {
        push_u64(out, n);
        out.push(',');
    }
    push_i64(out, r.error());
    out.push('\n');
}

/// Appends `n` in decimal, byte-identical to its `Display`.
pub(crate) fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    out.extend(decimal_digits(n, &mut buf).iter().map(|&d| char::from(d)));
}

/// Writes the decimal digits of `n`, byte-identical to its `Display`,
/// to the end of `buf` and returns them.
pub(crate) fn decimal_digits(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    // u64::MAX has 20 digits.
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    &buf[start..]
}

/// Appends `n` in decimal, byte-identical to its `Display`.
pub(crate) fn push_usize(out: &mut String, n: usize) {
    // usize is at most 64 bits on every target Rust supports.
    push_u64(out, n as u64);
}

/// Appends `n` in decimal, byte-identical to its `Display`; `i64::MIN`
/// is written through its unsigned magnitude, so it cannot overflow.
pub(crate) fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use crate::config::{MeasurementConfig, OptLevel};
    use crate::interface::{CountingMode, Interface};
    use crate::pattern::Pattern;
    use counterlab_cpu::pmu::Event;
    use counterlab_cpu::uarch::Processor;
    use proptest::prelude::*;

    /// The `core::fmt` line builder [`write_csv_line`] replaced, kept as
    /// the byte-for-byte reference it must match.
    fn reference_csv_line(r: &Record) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.config.processor,
            r.config.interface,
            r.config.pattern.code(),
            r.config.opt_level.level(),
            r.config.counters,
            r.config.tsc_on,
            r.config.mode,
            r.config.event,
            r.benchmark.name(),
            r.benchmark.iterations(),
            r.measured,
            r.expected,
            r.error()
        )
    }

    /// `(measured, expected)` pairs at the decimal edges: 0, 1, 9, 10 and
    /// `u64::MAX` counts, and zero, negative, `i64::MIN` and `i64::MAX`
    /// errors.
    const COUNT_EDGES: [(u64, u64); 11] = [
        (0, 0),
        (1, 0),
        (9, 1),
        (10, 9),
        (0, 10),
        (9, 10),
        (u64::MAX, u64::MAX),
        (u64::MAX, 0),
        (10, u64::MAX),
        (1 << 63, 0),
        (i64::MAX as u64, 0),
    ];

    /// Every processor × interface × pattern × mode × event × zoo
    /// benchmark, with the count edges and edge values of the remaining
    /// fields cycled through the sequence.
    pub(crate) fn record_space() -> Vec<Record> {
        let mut out = Vec::new();
        for processor in Processor::ALL {
            for interface in Interface::ALL {
                for pattern in Pattern::ALL {
                    for mode in CountingMode::ALL {
                        for event in Event::ALL {
                            // `cell` cycles the fields the zoo loop shares.
                            let cell = out.len() / 8;
                            for benchmark in Benchmark::zoo([1, 10, 80, u64::MAX][cell % 4]) {
                                let k = out.len();
                                let (measured, expected) = COUNT_EDGES[k % COUNT_EDGES.len()];
                                let config = MeasurementConfig {
                                    processor,
                                    interface,
                                    pattern,
                                    opt_level: OptLevel::ALL[cell % 4],
                                    counters: [0, 1, 9, 10, usize::MAX][k % 5],
                                    tsc_on: cell % 2 == 0,
                                    mode,
                                    event,
                                    seed: [0, 9, 10, u64::MAX][k % 4],
                                    hz: [0, 1, 250, u32::MAX][(k / 3) % 4],
                                };
                                out.push(Record {
                                    config,
                                    benchmark,
                                    measured,
                                    expected,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// A `u64` with a uniformly drawn bit width, so short and long
    /// decimal forms are equally likely.
    fn arb_u64() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u32..=64).prop_map(|(v, bits)| v.checked_shr(64 - bits).unwrap_or(0))
    }

    /// Any record whose `error()` is representable: a point of
    /// [`record_space`] with every numeric field drawn afresh.
    pub(crate) fn arb_record() -> impl Strategy<Value = Record> {
        let space = record_space();
        let numbers = (
            arb_u64(),
            arb_u64(),
            any::<u32>(),
            arb_u64(),
            arb_u64(),
            arb_u64(),
        );
        (0..space.len(), any::<bool>(), numbers)
            .prop_map(
                move |(k, tsc_on, (counters, seed, hz, iters, measured, expected))| {
                    let config = MeasurementConfig {
                        counters: counters as usize,
                        tsc_on,
                        seed,
                        hz,
                        ..space[k].config
                    };
                    // The zoo is record_space's innermost loop.
                    let benchmark = Benchmark::zoo(iters)[k % 8];
                    Record {
                        config,
                        benchmark,
                        measured,
                        expected,
                    }
                },
            )
            .prop_filter("error() overflows i64", |r| {
                (r.measured as i64).checked_sub(r.expected as i64).is_some()
            })
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut unsigned = vec![0, u64::MAX, u64::MAX - 1];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            unsigned.extend([p - 1, p, p + 1]);
            p = next;
        }
        for n in unsigned {
            let mut s = String::from("x");
            push_u64(&mut s, n);
            assert_eq!(s, format!("x{n}"));
        }
        for n in [0, 1, -1, 9, -9, 10, -10, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut s = String::from("x");
            push_i64(&mut s, n);
            assert_eq!(s, format!("x{n}"));
        }
    }

    #[test]
    fn csv_writer_matches_fmt_reference_over_the_record_space() {
        let records = record_space();
        assert_eq!(records.len(), 3 * 6 * 4 * 3 * 7 * 8);
        let mut batch = String::from(CSV_HEADER);
        for r in &records {
            let reference = reference_csv_line(r);
            // Appends after what the buffer already holds.
            let mut line = String::from("kept,");
            write_csv_line(&mut line, r);
            assert_eq!(
                line.strip_prefix("kept,"),
                Some(reference.as_str()),
                "{r:?}"
            );
            assert_eq!(record_to_csv_line(r), reference);
            batch.push_str(&reference);
        }
        assert!(records_to_csv(&records) == batch);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn csv_writer_matches_fmt_reference(r in arb_record(), prefix in arb_u64()) {
            let mut line = prefix.to_string();
            write_csv_line(&mut line, &r);
            prop_assert_eq!(line, format!("{prefix}{}", reference_csv_line(&r)));
        }
    }

    #[test]
    fn table_alignment() {
        let t = table(
            &["a", "long_header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["yyyy".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[0].contains("long_header"));
    }

    #[test]
    fn table_rows_longer_than_header() {
        // Regression: rows with more cells than the header used to index
        // past the widths vector and panic.
        let t = table(
            &["a"],
            &[
                vec!["x".into(), "extra".into(), "more".into()],
                vec!["y".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("extra"));
        assert!(lines[2].contains("more"));
        // The extra columns get their own widths: the separator spans them.
        assert!(lines[1].len() >= lines[2].len());
    }

    #[test]
    fn table_empty_header_is_empty() {
        // Regression: an empty header used to underflow `2 * (cols - 1)`.
        assert_eq!(table(&[], &[]), "");
        assert_eq!(table(&[], &[vec!["orphan".into()]]), "");
    }

    #[test]
    fn table_empty_rows_still_render() {
        let t = table(&["only", "header"], &[]);
        assert_eq!(t.lines().count(), 2);
        assert!(t.contains("only"));
    }

    #[test]
    fn boxplot_line_markers() {
        let bp = BoxPlot::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let line = boxplot_line("test", &bp, 0.0, 6.0, 60);
        assert!(line.contains('['));
        assert!(line.contains(']'));
        assert!(line.contains(':'));
        assert!(line.starts_with("test"));
    }

    #[test]
    fn boxplot_line_degenerate() {
        let bp = BoxPlot::from_slice(&[5.0]).unwrap();
        let line = boxplot_line("one", &bp, 0.0, 10.0, 40);
        assert!(line.contains(':') || line.contains('['));
    }

    #[test]
    fn boxplot_line_zero_width_clamped() {
        // Regression: `width == 0` used to index `cells[wl]` on an empty
        // buffer and panic.
        let bp = BoxPlot::from_slice(&[1.0, 2.0, 3.0]).unwrap();
        for width in [0, 1, MIN_BOXPLOT_WIDTH - 1] {
            let line = boxplot_line("tiny", &bp, 0.0, 4.0, width);
            assert_eq!(line.len(), 28 + 1 + MIN_BOXPLOT_WIDTH, "width = {width}");
            assert!(line.contains(':'), "width = {width}");
        }
        // At or above the minimum the request is honored exactly.
        let line = boxplot_line("wide", &bp, 0.0, 4.0, 40);
        assert_eq!(line.len(), 28 + 1 + 40);
    }

    #[test]
    fn violin_renders_rows() {
        let kde = Kde::from_slice(&[1.0, 1.1, 0.9, 5.0]).unwrap();
        let v = violin_text(&kde, 10, 30);
        assert_eq!(v.lines().count(), 10);
        assert!(v.contains('#'));
    }

    #[test]
    fn scatter_bounds() {
        let pts = vec![(0.0, 0.0), (1.0, 1.0), (0.5, 0.25)];
        let s = scatter_text(&pts, 20, 10);
        assert!(s.contains('*'));
        assert!(s.lines().count() == 12);
        assert_eq!(scatter_text(&[], 10, 5), "(no data)\n");
    }

    #[test]
    fn csv_roundtrip_fields() {
        let rec = crate::measure::Record {
            config: MeasurementConfig::new(Processor::Core2Duo, Interface::Pc),
            benchmark: Benchmark::Loop { iters: 10 },
            measured: 140,
            expected: 31,
        };
        let csv = records_to_csv(&[rec]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 13);
        assert!(lines[1].contains("CD,pc,ar"));
        assert!(lines[1].ends_with("109"));
    }
}
