package core

import (
	"testing"

	"repro/internal/client"
	"repro/internal/workload"
)

const added100k = 100 << 10

func TestFig4AppendDropboxFlat(t *testing.T) {
	// Fig. 4 left: Dropbox's upload volume tracks the appended
	// 100 kB, not the file size.
	sizes := Fig4Sizes(ModAppend)
	pts := Fig4DeltaSeries(client.Dropbox(), ModAppend, sizes, added100k, 11)
	for _, p := range pts {
		if p.Upload > 3*added100k {
			t.Errorf("dropbox append on %d B file uploaded %d B, want ~100 kB", p.FileSize, p.Upload)
		}
	}
	// And it must not grow with file size: compare the extremes.
	if last, first := pts[len(pts)-1].Upload, pts[0].Upload; last > 2*first+added100k {
		t.Errorf("dropbox append grows with file size: %d -> %d", first, last)
	}
}

func TestFig4AppendOthersReupload(t *testing.T) {
	// Services without delta encoding re-upload the whole file.
	for _, p := range []client.Profile{client.SkyDrive(), client.CloudDrive()} {
		pts := Fig4DeltaSeries(p, ModAppend, []int64{1 << 20}, added100k, 12)
		if pts[0].Upload < 1<<20 {
			t.Errorf("%s append uploaded %d B, want >= file size", p.Service, pts[0].Upload)
		}
	}
}

func TestFig4RandomInsertCombinedEffects(t *testing.T) {
	// Fig. 4 right at 10 MB: Dropbox pays more than the added data
	// (shifted chunks) but far less than the file; Wuala's
	// deduplication uploads only the modified chunks (2 of ~3);
	// SkyDrive re-uploads everything.
	const size = 10 << 20
	drop := Fig4DeltaSeries(client.Dropbox(), ModRandom, []int64{size}, added100k, 13)[0].Upload
	wuala := Fig4DeltaSeries(client.Wuala(), ModRandom, []int64{size}, added100k, 13)[0].Upload
	sky := Fig4DeltaSeries(client.SkyDrive(), ModRandom, []int64{size}, added100k, 13)[0].Upload

	if drop < added100k || drop > size/2 {
		t.Errorf("dropbox random insert uploaded %d, want added<up<size/2", drop)
	}
	if wuala >= size || wuala < size/8 {
		t.Errorf("wuala random insert uploaded %d, want partial re-upload (changed chunks only)", wuala)
	}
	if sky < size {
		t.Errorf("skydrive random insert uploaded %d, want full file", sky)
	}
	if !(drop < wuala && wuala < sky) {
		t.Errorf("ordering broken: dropbox %d, wuala %d, skydrive %d", drop, wuala, sky)
	}
}

func TestFig4PrependDeltaStillSmall(t *testing.T) {
	// Rolling-hash delta handles shifts: prepending must not blow
	// up Dropbox's upload for a sub-chunk file.
	pts := Fig4DeltaSeries(client.Dropbox(), ModPrepend, []int64{1 << 20}, added100k, 14)
	if pts[0].Upload > 3*added100k {
		t.Errorf("dropbox prepend uploaded %d, want ~100 kB", pts[0].Upload)
	}
}

func TestFig5CompressionShapes(t *testing.T) {
	const size = 1 << 20
	upload := func(p client.Profile, kind workload.Kind) int64 {
		return Fig5CompressionSeries(p, kind, []int64{size}, 15)[0].Upload
	}

	// (a) text: Dropbox and Google Drive compress; SkyDrive does not.
	dropText := upload(client.Dropbox(), workload.Text)
	gdText := upload(client.GoogleDrive(), workload.Text)
	skyText := upload(client.SkyDrive(), workload.Text)
	if dropText > size*3/4 || gdText > size*3/4 {
		t.Errorf("compressors sent too much text: dropbox %d, gdrive %d", dropText, gdText)
	}
	if skyText < size {
		t.Errorf("skydrive text upload %d, want >= size", skyText)
	}

	// (b) random: nobody wins.
	dropRand := upload(client.Dropbox(), workload.Binary)
	if dropRand < size {
		t.Errorf("dropbox random upload %d, want >= size (incompressible)", dropRand)
	}

	// (c) fake JPEGs: Google Drive skips (smart), Dropbox compresses
	// anyway.
	dropFake := upload(client.Dropbox(), workload.FakeJPEG)
	gdFake := upload(client.GoogleDrive(), workload.FakeJPEG)
	if dropFake > size*3/4 {
		t.Errorf("dropbox fake JPEG upload %d, want compressed", dropFake)
	}
	if gdFake < size {
		t.Errorf("gdrive fake JPEG upload %d, want uncompressed (smart policy fooled)", gdFake)
	}
}

func TestFig6ForServiceShape(t *testing.T) {
	r := Fig6Matrix([]client.Profile{client.Wuala()}, 2, 16)[0]
	if len(r.Summaries) != 4 || len(r.Workloads) != 4 {
		t.Fatalf("Fig6 shape: %d summaries", len(r.Summaries))
	}
	for i, s := range r.Summaries {
		if s.MeanCompletion <= 0 {
			t.Errorf("workload %s: no completion", r.Workloads[i])
		}
	}
}

func TestModKindString(t *testing.T) {
	if ModAppend.String() != "append" || ModPrepend.String() != "prepend" || ModRandom.String() != "random" {
		t.Fatal("mod kind names")
	}
}
