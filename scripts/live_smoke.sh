#!/bin/sh
# live_smoke.sh — two ~2 s sessions between a real sender and receiver
# process over loopback UDP, one with -rc fbcc and one with -rc gcc.
# Exercises the whole live backend end to end: the session.Sender and
# session.Viewer halves the simulator composes, the wire codec, the jitter
# buffer, the reverse report channel and the sender's synthesized diag feed.
# The receiver binds an ephemeral port and publishes it through -portfile;
# both processes enforce minimum progress (-expect-frames /
# -expect-reports) and exit non-zero if the session didn't actually move
# media and feedback. The JSON summaries must keep their keys: scripts
# parse them.
set -eu

GO=${GO:-go}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$GO" build -o "$out/poi360-live" ./cmd/poi360-live

tx_keys="role rc duration frames_sent packets_sent bytes_sent pacer_drops
write_errors reports stale_reports net_reports report_gap_mean_ms
video_rate_bps rtp_rate_bps"
rx_keys="role duration packets bytes frames_complete frames_lost packet_dups
packet_late seq_skipped jitter_max_depth net_jitter_events reports_sent
parse_errors bad_ssrc delay_above_min_p50_ms delay_above_min_p90_ms
psnr_mean_db throughput_mean_bps"

# has_keys FILE KEY... — every key must appear in the one-line summary.
has_keys() {
	file=$1
	shift
	for key in "$@"; do
		if ! grep -q "\"$key\":" "$file"; then
			echo "live-smoke: $file lost its \"$key\" key" >&2
			cat "$file" >&2
			return 1
		fi
	done
}

for rc in fbcc gcc; do
	rm -f "$out/port"
	"$out/poi360-live" -role receiver -addr 127.0.0.1:0 \
		-portfile "$out/port" -duration 4s -expect-frames 20 \
		> "$out/rx.json" 2> "$out/rx.err" &
	rx=$!

	# Wait for the receiver to publish its bound port.
	i=0
	while [ ! -s "$out/port" ]; do
		i=$((i + 1))
		if [ "$i" -gt 50 ]; then
			echo "live-smoke: receiver never published its port" >&2
			cat "$out/rx.err" >&2 || true
			kill "$rx" 2>/dev/null || true
			exit 1
		fi
		sleep 0.1
	done

	if ! "$out/poi360-live" -role sender -addr "127.0.0.1:$(cat "$out/port")" \
		-rc "$rc" -duration 2s -expect-reports 10 \
		> "$out/tx.json" 2> "$out/tx.err"; then
		echo "live-smoke: $rc sender failed" >&2
		cat "$out/tx.err" >&2 || true
		kill "$rx" 2>/dev/null || true
		exit 1
	fi

	if ! wait "$rx"; then
		echo "live-smoke: receiver of the $rc session failed" >&2
		cat "$out/rx.err" >&2 || true
		exit 1
	fi

	echo "--- $rc sender"
	cat "$out/tx.json"
	echo "--- $rc receiver"
	cat "$out/rx.json"
	# shellcheck disable=SC2086 # the key lists are meant to split
	has_keys "$out/tx.json" $tx_keys
	# shellcheck disable=SC2086
	has_keys "$out/rx.json" $rx_keys
done
echo "live-smoke: ok"
