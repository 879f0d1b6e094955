//! Absolute-path parsing and validation.

use crate::layout::MAX_NAME;
use crate::{FsError, FsResult};

/// A validated absolute path: the components between its slashes,
/// borrowed from the caller's string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Components<'p> {
    /// The path without its leading slash and optional trailing slash;
    /// empty for the root.
    inner: &'p str,
}

impl<'p> Components<'p> {
    /// The components, in order.
    pub fn iter(self) -> impl Iterator<Item = &'p str> {
        (!self.inner.is_empty())
            .then(|| self.inner.split('/'))
            .into_iter()
            .flatten()
    }

    /// Peels off the final component: `(parent components, name)`, or
    /// `None` for the root.
    pub fn split_last(self) -> Option<(Components<'p>, &'p str)> {
        match self.inner.rsplit_once('/') {
            Some((parent, name)) => Some((Components { inner: parent }, name)),
            None if self.inner.is_empty() => None,
            None => Some((Components { inner: "" }, self.inner)),
        }
    }

    /// The first `n` components, joined by `/` (for error messages).
    pub fn prefix(self, n: usize) -> String {
        self.iter().take(n).collect::<Vec<_>>().join("/")
    }

    /// Whether this path lies strictly below `dir`.
    pub fn is_below(self, dir: Components<'_>) -> bool {
        match self.inner.strip_prefix(dir.inner) {
            Some(rest) if dir.inner.is_empty() => !rest.is_empty(),
            Some(rest) => rest.starts_with('/'),
            None => false,
        }
    }
}

/// Splits an absolute path into validated components.
///
/// Rules: paths start with `/`; components are nonempty, at most
/// [`MAX_NAME`] bytes, and contain neither `/` nor NUL; `.` and `..` are
/// rejected (the file system keeps no parent pointers). The root path `/`
/// yields no components. A single trailing slash is tolerated
/// (`/a/b/` == `/a/b`). Every component is checked before this returns.
///
/// # Errors
///
/// [`FsError::InvalidPath`] or [`FsError::InvalidName`].
pub fn split(path: &str) -> FsResult<Components<'_>> {
    let Some(rest) = path.strip_prefix('/') else {
        return Err(FsError::InvalidPath(path.to_string()));
    };
    let parts = Components {
        inner: rest.strip_suffix('/').unwrap_or(rest),
    };
    parts.iter().try_for_each(validate_name)?;
    Ok(parts)
}

/// Validates a single file name.
///
/// # Errors
///
/// [`FsError::InvalidName`] for empty, oversized, `.`/`..`, or names
/// containing `/` or NUL.
pub fn validate_name(name: &str) -> FsResult<()> {
    if name.is_empty()
        || name.len() > MAX_NAME
        || name == "."
        || name == ".."
        || name.contains('/')
        || name.contains('\0')
    {
        return Err(FsError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// Splits a path into (parent components, final name).
///
/// # Errors
///
/// [`FsError::InvalidPath`] when the path is `/` (which has no name) or
/// otherwise malformed.
pub fn split_parent(path: &str) -> FsResult<(Components<'_>, &str)> {
    split(path)?
        .split_last()
        .ok_or_else(|| FsError::InvalidPath(path.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(path: &str) -> Vec<&str> {
        split(path).unwrap().iter().collect()
    }

    #[test]
    fn root_has_no_components() {
        assert!(parts("/").is_empty());
    }

    #[test]
    fn normal_paths_split() {
        assert_eq!(parts("/a/b/c"), vec!["a", "b", "c"]);
        assert_eq!(parts("/a/b/"), vec!["a", "b"]);
    }

    #[test]
    fn relative_paths_rejected() {
        assert!(split("a/b").is_err());
        assert!(split("").is_err());
    }

    #[test]
    fn dot_components_rejected() {
        assert!(split("/a/./b").is_err());
        assert!(split("/a/../b").is_err());
        assert!(split("/a//b").is_err());
    }

    #[test]
    fn long_names_rejected() {
        let long = "x".repeat(MAX_NAME + 1);
        assert!(split(&format!("/{long}")).is_err());
        let ok = "x".repeat(MAX_NAME);
        assert!(split(&format!("/{ok}")).is_ok());
    }

    #[test]
    fn split_parent_peels_the_name() {
        let (parents, name) = split_parent("/a/b/c").unwrap();
        assert_eq!(parents.iter().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(parents.prefix(1), "a");
        assert_eq!(name, "c");
        let (parents, name) = split_parent("/top/").unwrap();
        assert_eq!((parents.iter().count(), name), (0, "top"));
        assert!(split_parent("/").is_err());
    }

    #[test]
    fn below_means_strictly_inside() {
        let below = |a: &str, b: &str| split(a).unwrap().is_below(split(b).unwrap());
        assert!(below("/a/b", "/a"));
        assert!(below("/a/b/c", "/a/b/"));
        assert!(below("/a", "/"));
        assert!(!below("/a", "/a"));
        assert!(!below("/ab", "/a"));
        assert!(!below("/a", "/a/b"));
        assert!(!below("/", "/"));
    }
}
