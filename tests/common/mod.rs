//! Golden-file comparison shared by the root integration tests.

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Byte-compares `actual` with `tests/golden/<name>`; with
/// `PAGODA_UPDATE_GOLDEN` set, rewrites the golden instead.
pub fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("PAGODA_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); regenerate with PAGODA_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} diverged from the committed golden; if the stream change is \
         intentional, regenerate with PAGODA_UPDATE_GOLDEN=1",
    );
}
