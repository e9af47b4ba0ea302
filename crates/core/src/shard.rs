//! The spatial-layout selector that the frozen benchmark still names.
//!
//! Every deployment keeps one dynamic kd-tree as its spatial index (see
//! [`antennae_geometry::dynamic`]), so there is no layout left to choose.
//! [`ShardSpec`] keeps its single variant, and
//! [`DynamicInstance::new_sharded`] equals [`DynamicInstance::new`], only
//! because the benchmark under `perfbench/` calls both and its files are
//! frozen; the next change to the benchmark deletes them.
//!
//! [`DynamicInstance::new`]: crate::dynamic::DynamicInstance::new
//! [`DynamicInstance::new_sharded`]: crate::dynamic::DynamicInstance::new_sharded

/// The layout argument of [`DynamicInstance::new_sharded`], kept for the
/// frozen benchmark (see the [module docs](self)).
///
/// [`DynamicInstance::new_sharded`]: crate::dynamic::DynamicInstance::new_sharded
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardSpec {
    /// One dynamic kd-tree per deployment, like every other constructor.
    #[default]
    Auto,
}
