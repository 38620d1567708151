//! Section 6 extensions (“a topic for further research is the extension
//! of the algorithm such that it may generate index configurations for n
//! paths … furthermore, we will incorporate in the algorithm the
//! possibility that no index will be allocated on a subpath”): the
//! no-index subpath option lives here; configurations for n paths are
//! [`crate::workload_advisor`], which prices a shared subpath index once
//! *during* selection.

pub mod noindex;
