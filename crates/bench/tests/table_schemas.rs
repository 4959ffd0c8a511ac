//! The published tables' schemas (`bmp_core::tables`) against the
//! experiment registry and the committed CSVs: one schema per
//! experiment, in registry order, and every committed `results/*.csv`
//! headed by its schema's columns.

use bmp_bench::engine::experiment_defs;
use bmp_core::tables;

#[test]
fn the_registry_names_are_the_schema_ids_in_order() {
    let names: Vec<&str> = experiment_defs().iter().map(|d| d.name).collect();
    let ids: Vec<&str> = tables::ALL.iter().map(|s| s.id).collect();
    assert_eq!(names, ids);
}

#[test]
fn every_committed_csv_is_headed_by_its_schema() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(&results).expect("results directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|x| x != "csv") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let schema = tables::ALL
            .iter()
            .find(|s| s.id == stem)
            .unwrap_or_else(|| panic!("{stem}.csv has no schema"));
        let text = std::fs::read_to_string(&path).expect("committed CSV");
        assert_eq!(
            text.lines().next(),
            Some(schema.header().as_str()),
            "{stem}"
        );
        stems.push(stem);
    }
    assert_eq!(stems.len(), 25, "committed CSVs: {stems:?}");
    assert_eq!(tables::ALL.len(), 25);
}
