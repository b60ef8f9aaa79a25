#pragma once

#include "analysis/capture.h"
#include "analysis/cloud_usage.h"
#include "analysis/columns.h"
#include "analysis/dataset.h"
#include "analysis/isp.h"
#include "analysis/patterns.h"
#include "analysis/regions.h"
#include "analysis/widearea.h"
#include "analysis/zones.h"
#include "proto/logs.h"
#include "snap/codec.h"

/// Snapshot codecs for every cached stage result in core::Study. The
/// store picks the encode_artifact/decode_artifact overload by the slot's
/// static type, via ADL on snap::Writer/Reader. That is why the codecs
/// stay in namespace cs::snap although the file lives in analysis/: they
/// depend on every artifact type, and the include graph must point
/// analysis -> snap, never snap -> analysis (cslint G1).
///
/// Each artifact struct has one field list that both encode and decode
/// walk (see snap/codec.h for the wire forms). Decoding validates as it
/// goes: DNS names are re-parsed through their own validators, enums and
/// signed integers are range-checked, and the dataset columns are checked
/// for shape. It throws SnapshotError rather than materialising nonsense.
///
/// Round-trip contract, pinned by snap_codec_test: for every artifact
/// `a`, encode(decode(encode(a))) produces the same bytes as encode(a),
/// and ArtifactGolden pins those bytes themselves.
namespace cs::snap {

void encode_artifact(Writer& w, const analysis::AlexaDataset& v);
void decode_artifact(Reader& r, analysis::AlexaDataset& v);

/// The dataset's native snapshot form (see analysis/columns.h); the
/// AlexaDataset overloads above convert through it, so the two encode to
/// identical bytes for equal data.
void encode_artifact(Writer& w, const analysis::DatasetColumns& v);
void decode_artifact(Reader& r, analysis::DatasetColumns& v);

/// Mid-stage checkpoint of a chunked dataset build ("dataset.partial").
void encode_artifact(Writer& w, const analysis::PartialDataset& v);
void decode_artifact(Reader& r, analysis::PartialDataset& v);

void encode_artifact(Writer& w, const analysis::CloudUsageReport& v);
void decode_artifact(Reader& r, analysis::CloudUsageReport& v);

void encode_artifact(Writer& w, const analysis::PatternReport& v);
void decode_artifact(Reader& r, analysis::PatternReport& v);

void encode_artifact(Writer& w, const analysis::RegionReport& v);
void decode_artifact(Reader& r, analysis::RegionReport& v);

void encode_artifact(Writer& w, const proto::TraceLogs& v);
void decode_artifact(Reader& r, proto::TraceLogs& v);

void encode_artifact(Writer& w, const analysis::CaptureReport& v);
void decode_artifact(Reader& r, analysis::CaptureReport& v);

void encode_artifact(Writer& w, const analysis::ZoneStudy& v);
void decode_artifact(Reader& r, analysis::ZoneStudy& v);

void encode_artifact(Writer& w, const analysis::Campaign& v);
void decode_artifact(Reader& r, analysis::Campaign& v);

void encode_artifact(Writer& w, const analysis::IspStudy& v);
void decode_artifact(Reader& r, analysis::IspStudy& v);

}  // namespace cs::snap
