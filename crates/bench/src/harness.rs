//! Output helpers shared by the figure/table binaries.

/// One (x, series -> y) data point of a figure.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// X-axis value (transaction size, workers, scale factor, ...).
    pub x: f64,
    /// Series label and Y value pairs.
    pub values: Vec<(String, f64)>,
}

/// Prints a figure as a tab-separated table: a header of series names, then
/// one row per x value. This is the textual equivalent of the paper's plots.
pub fn print_series(title: &str, x_label: &str, points: &[SeriesPoint]) {
    println!("# {title}");
    if points.is_empty() {
        println!("(no data)");
        return;
    }
    let mut header = vec![x_label.to_owned()];
    header.extend(points[0].values.iter().map(|(name, _)| name.clone()));
    println!("{}", header.join("\t"));
    for point in points {
        let mut row = vec![format!("{}", point.x)];
        row.extend(point.values.iter().map(|(_, v)| format!("{v:.3}")));
        println!("{}", row.join("\t"));
    }
    println!();
}

/// Prints a plain table with a caption: header row plus data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
}
