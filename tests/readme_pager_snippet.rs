//! Pins the README "Durability" snippet so the documented claims (a
//! committed file-backed tree survives dropping every handle and answers
//! the same queries after reopen) stay true.

use oo_index_config::prelude::*;

#[test]
fn readme_durability_snippet() {
    let file =
        std::env::temp_dir().join(format!("oic-readme-durability-{}.oic", std::process::id()));
    let jrnl = {
        let mut s = file.clone().into_os_string();
        s.push(".jrnl");
        std::path::PathBuf::from(s)
    };
    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&jrnl).ok();

    {
        let pager = FilePager::open_path(&file, 512).unwrap();
        let mut tree = PagedBTree::open(pager).unwrap();
        for i in 0..1000u32 {
            tree.insert(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        tree.commit().unwrap(); // journal old images, flush dirty, publish header
    } // every in-memory handle dropped — only the file remains

    let pager = FilePager::open_path(&file, 512).unwrap();
    let mut tree = PagedBTree::open(pager).unwrap();
    assert_eq!(tree.len(), 1000);
    assert_eq!(tree.get(b"k0123").unwrap().unwrap(), b"v");
    let mut seen = 0;
    tree.visit_range(b"k0100", b"k0199", |_key, value| {
        seen += value.len(); // slices of the page image, nothing copied
        true // keep going
    })
    .unwrap();
    assert_eq!(seen, 100);

    std::fs::remove_file(&file).ok();
    std::fs::remove_file(&jrnl).ok();
}
