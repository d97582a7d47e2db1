# Splits the stdout of `spef [-quick] all` into one file per experiment,
# dir/<name>.golden, holding exactly what that experiment's Format
# printed: the "== name (N.Ns) ==" header, whose timing varies from run
# to run, and the blank line spef prints after each block are dropped.
function flush(   i, f) {
	if (name == "")
		return
	f = dir "/" name ".golden"
	printf "" > f
	for (i = 1; i < n; i++)
		print buf[i] > f
	close(f)
}
/^== [a-z0-9]+ \([0-9.]+s\) ==$/ { flush(); name = $2; n = 0; next }
{ buf[++n] = $0 }
END { flush() }
