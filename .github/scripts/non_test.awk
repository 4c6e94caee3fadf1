# Prints a Rust source file without its `#[cfg(test)]` items, for the
# CI ratchets that grep non-test code:
#
#   awk -f .github/scripts/non_test.awk crates/system/src/report.rs
#
# A line holding only `#[cfg(test)]` starts an item, which is dropped
# with the attribute: further attribute and doc lines, then either one
# line ending in `;` (`mod reference;`, a `use`) or a braced block,
# counted by depth up to the line that closes it. Code after the item is
# printed again. Braces are counted as written, so a test item whose
# string or char literals hold an unbalanced brace would end early or
# late; none in this workspace does.

function count(s, ch,    n, i) {
    n = 0
    for (i = 1; i <= length(s); i++) {
        if (substr(s, i, 1) == ch) {
            n++
        }
    }
    return n
}

skipping {
    opens = count($0, "{")
    depth += opens - count($0, "}")
    if (opens > 0) {
        opened = 1
    }
    if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) {
        skipping = 0
    }
    next
}

/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ {
    skipping = 1
    opened = 0
    depth = 0
    next
}

{ print }
