#!/bin/sh
# End-to-end exercise of the xydiff_tool binary: diff, stats, validate,
# patch forward, patch in reverse via the XID sidecar, invert, compose.
# Usage: tool_integration_test.sh <path-to-xydiff_tool>
set -e

TOOL="$1"
[ -x "$TOOL" ] || { echo "tool not found: $TOOL"; exit 1; }

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

cat > old.xml <<'EOF'
<catalog><item><name>alpha</name><price>10</price></item><item><name>beta</name><price>20</price></item><box/></catalog>
EOF
cat > new.xml <<'EOF'
<catalog><box><item><name>beta</name><price>25</price></item></box><item><name>gamma</name><price>30</price></item></catalog>
EOF

echo "-- diff"
"$TOOL" diff old.xml new.xml -o delta.xml --stats 2> diff_stats.txt
grep -q "nodes" diff_stats.txt

echo "-- stats + validate"
"$TOOL" stats delta.xml | grep -q "operations"
"$TOOL" validate delta.xml | grep -q "^ok:"

echo "-- patch forward"
"$TOOL" patch old.xml delta.xml -o patched.xml --write-meta patched.meta
# The patched document must re-diff against new.xml as empty.
"$TOOL" diff patched.xml new.xml -o empty_delta.xml
"$TOOL" stats empty_delta.xml | grep -q "operations     : 0"

echo "-- patch reverse (needs the XID sidecar)"
"$TOOL" patch patched.xml delta.xml --reverse --meta patched.meta -o back.xml
"$TOOL" diff back.xml old.xml -o empty2.xml
"$TOOL" stats empty2.xml | grep -q "operations     : 0"

echo "-- invert + compose cancels"
"$TOOL" invert delta.xml -o inv.xml
"$TOOL" compose old.xml delta.xml inv.xml -o composed.xml
"$TOOL" stats composed.xml | grep -q "operations     : 0"

echo "-- explain"
"$TOOL" explain old.xml delta.xml > explain.txt
grep -q "moved" explain.txt
grep -q "updated" explain.txt

echo "-- batch (parallel pipeline)"
cp old.xml old2.xml
cp new.xml new2.xml
URL='http://example.com/news/list?id=7&page=2'
printf 'old.xml\tnew.xml\tdoc-a\nold2.xml\tnew2.xml\tdoc-b\n' > manifest.tsv
printf 'old.xml\tnew.xml\t%s\n' "$URL" >> manifest.tsv
"$TOOL" batch manifest.tsv -o warehouse --threads 2 --stats \
  > batch_out.txt 2> batch_stats.txt
grep -q "doc-a: v2" batch_out.txt
grep -q "doc-b: v2" batch_out.txt
grep -q "$URL: v2" batch_out.txt
grep -q "parse" batch_stats.txt
# DiffBatch feeds the change statistics: 3 deltas, <price> among the labels.
grep -q "change statistics over 3 delta(s)" batch_stats.txt
grep -q "^price " batch_stats.txt
[ -d warehouse ] || { echo "warehouse directory not saved"; exit 1; }
# A malformed member fails its slot, not the batch.
printf '<broken' > bad.xml
printf 'old.xml\tnew.xml\tdoc-c\nbad.xml\tnew.xml\tdoc-d\n' > manifest2.tsv
if "$TOOL" batch manifest2.tsv --threads 2 > batch2_out.txt 2> batch2_err.txt
then
  echo "expected a nonzero exit with a malformed member"; exit 1
fi
grep -q "doc-c: v2" batch2_out.txt
grep -q "doc-d" batch2_err.txt
grep -q "failed slots" batch2_err.txt
# --fail-fast stops admitting slots once one has failed; a single worker
# claims the largest slot first, so the large bad slot deterministically
# aborts the rest.
{ printf '<broken>'; cat old.xml; } > bigbad.xml
printf 'bigbad.xml\tnew.xml\tdoc-e\nold.xml\tnew.xml\tdoc-f\n' > manifest3.tsv
if "$TOOL" batch manifest3.tsv --threads 1 --fail-fast \
    > batch3_out.txt 2> batch3_err.txt
then
  echo "expected a nonzero exit under --fail-fast"; exit 1
fi
grep -q "skipped by --fail-fast" batch3_err.txt
# A 1-byte budget sheds every slot: the run exits 5 and names the cause.
shed_status=0
"$TOOL" batch manifest.tsv --max-batch-bytes 1 > shed_out.txt \
  2> shed_err.txt || shed_status=$?
[ "$shed_status" -eq 5 ] || {
  echo "expected exit 5 for an all-shed batch, got $shed_status"; exit 1
}
grep -q "shed" shed_err.txt
# The usage text lists exactly the exit codes that remain.
"$TOOL" batch > /dev/null 2> batch_usage.txt || true
grep -q "5 shed (budget)" batch_usage.txt
if grep -q "6 quarantined" batch_usage.txt; then
  echo "usage still lists exit code 6"; exit 1
fi

echo "-- checkout (reconstruct warehouse versions)"
# The warehouse saved above holds doc-a at v2 (old -> new). The newest
# version checks out by default and re-diffs against new.xml as empty.
# --stats reports the backward replay's cost: the newest version is a
# plain copy, the one before it one inverse delta application.
"$TOOL" checkout warehouse doc-a -o co_v2.xml --stats 2> co_stats.txt
grep -q "2 of 2, 0 delta application" co_stats.txt
"$TOOL" diff co_v2.xml new.xml -o co_empty.xml
"$TOOL" stats co_empty.xml | grep -q "operations     : 0"
# --version 1 reconstructs the past version.
"$TOOL" checkout warehouse doc-a --version 1 -o co_v1.xml --stats \
  2> co_v1_stats.txt
grep -q "1 of 2, 1 delta application" co_v1_stats.txt
"$TOOL" diff co_v1.xml old.xml -o co_empty1.xml
"$TOOL" stats co_empty1.xml | grep -q "operations     : 0"
# A URL with '/' and '?' checks out by the URL itself, at both versions.
"$TOOL" checkout warehouse "$URL" -o co_url.xml --stats 2> co_url_stats.txt
grep -q "2 of 2" co_url_stats.txt
"$TOOL" diff co_url.xml new.xml -o co_url_empty.xml
"$TOOL" stats co_url_empty.xml | grep -q "operations     : 0"
"$TOOL" checkout warehouse "$URL" --version 1 -o co_url_v1.xml
"$TOOL" diff co_url_v1.xml old.xml -o co_url_empty1.xml
"$TOOL" stats co_url_empty1.xml | grep -q "operations     : 0"
# Unknown URL and out-of-range version fail with exit 1.
if "$TOOL" checkout warehouse no-such-doc 2> co_err.txt; then
  echo "expected a NotFound error for an unknown URL"; exit 1
fi
grep -q "error:" co_err.txt
if "$TOOL" checkout warehouse doc-a --version 99 2> co_err2.txt; then
  echo "expected a NotFound error for version 99"; exit 1
fi
grep -q "error:" co_err2.txt
# Bad flag value is a usage error (exit 1 from strict parsing).
if "$TOOL" checkout warehouse doc-a --version zero 2> co_err3.txt; then
  echo "expected an error for a non-numeric --version"; exit 1
fi
# Missing positionals print usage and exit 2.
if "$TOOL" checkout warehouse > /dev/null 2>&1; then
  echo "expected usage exit for missing URL"; exit 1
fi

echo "-- error handling"
if "$TOOL" patch new.xml delta.xml -o /dev/null 2> err.txt; then
  echo "expected a conflict patching the wrong document"; exit 1
fi
grep -q "error:" err.txt
if "$TOOL" diff missing.xml new.xml 2> err2.txt; then
  echo "expected a NotFound error"; exit 1
fi

echo "ALL TOOL CHECKS PASSED"
