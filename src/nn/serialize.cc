#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "util/crc32.h"
#include "util/string_util.h"

namespace apots::nn {

namespace {

constexpr char kMagicV2[5] = {'A', 'P', 'O', 'T', '2'};
// A parameter tensor in this library is at most rank 4; anything larger in
// a file is corruption, not a model.
constexpr uint64_t kMaxRank = 8;

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over an in-memory file image. Every read reports
/// a descriptive Status instead of running off the end, so truncated files
/// fail cleanly whichever field the truncation lands in.
class BufferReader {
 public:
  BufferReader(const std::string& buffer, size_t limit)
      : data_(buffer.data()), limit_(limit) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return limit_ - pos_; }

  template <typename T>
  Status ReadPod(T* value, const char* what) {
    if (remaining() < sizeof(T)) {
      return Status::IoError(StrFormat(
          "truncated file: %s needs %zu bytes, %zu left", what, sizeof(T),
          remaining()));
    }
    std::memcpy(value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status ReadBytes(void* dst, size_t size, const char* what) {
    if (remaining() < size) {
      return Status::IoError(StrFormat(
          "truncated file: %s needs %zu bytes, %zu left", what, size,
          remaining()));
    }
    std::memcpy(dst, data_ + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  Status Skip(size_t size, const char* what) {
    if (remaining() < size) {
      return Status::IoError(StrFormat(
          "truncated file: %s needs %zu bytes, %zu left", what, size,
          remaining()));
    }
    pos_ += size;
    return Status::Ok();
  }

 private:
  const char* data_;
  size_t limit_;
  size_t pos_ = 0;
};

/// One parsed parameter record; payload stays in the file image until the
/// whole file has been validated (all-or-nothing load contract).
struct ParamRecord {
  std::string name;
  std::vector<size_t> shape;
  size_t payload_offset = 0;
  size_t payload_floats = 0;
};

std::string ShapeToString(const std::vector<size_t>& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%zu", shape[i]);
  }
  return out + "]";
}

Status ParseRecords(BufferReader* reader, size_t count,
                    std::vector<ParamRecord>* records) {
  records->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ParamRecord record;
    uint64_t name_len = 0;
    APOTS_RETURN_IF_ERROR(reader->ReadPod(&name_len, "parameter name length"));
    if (name_len > reader->remaining()) {
      return Status::IoError(StrFormat(
          "corrupt name length %llu with %zu bytes left",
          static_cast<unsigned long long>(name_len), reader->remaining()));
    }
    record.name.resize(static_cast<size_t>(name_len));
    APOTS_RETURN_IF_ERROR(
        reader->ReadBytes(record.name.data(), record.name.size(),
                          "parameter name"));
    uint64_t rank = 0;
    APOTS_RETURN_IF_ERROR(reader->ReadPod(&rank, "parameter rank"));
    if (rank > kMaxRank) {
      return Status::IoError(StrFormat(
          "corrupt rank %llu for parameter '%s'",
          static_cast<unsigned long long>(rank), record.name.c_str()));
    }
    size_t floats = 1;
    for (uint64_t d = 0; d < rank; ++d) {
      uint64_t dim = 0;
      APOTS_RETURN_IF_ERROR(reader->ReadPod(&dim, "parameter shape"));
      if (dim != 0 && floats > reader->remaining() / dim) {
        return Status::IoError(StrFormat(
            "corrupt shape for parameter '%s': payload exceeds file",
            record.name.c_str()));
      }
      record.shape.push_back(static_cast<size_t>(dim));
      floats *= static_cast<size_t>(dim);
    }
    record.payload_floats = floats;
    record.payload_offset = reader->position();
    APOTS_RETURN_IF_ERROR(
        reader->Skip(floats * sizeof(float), "parameter payload"));
    records->push_back(std::move(record));
  }
  return Status::Ok();
}

Status ValidateAgainstModel(const std::vector<Parameter*>& params,
                            const std::vector<ParamRecord>& records) {
  if (records.size() != params.size()) {
    return Status::InvalidArgument(
        StrFormat("parameter count mismatch: file has %zu, model has %zu",
                  records.size(), params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (records[i].name != params[i]->name) {
      return Status::InvalidArgument(
          StrFormat("parameter name mismatch: file '%s' vs model '%s'",
                    records[i].name.c_str(), params[i]->name.c_str()));
    }
    if (records[i].shape != params[i]->value.shape()) {
      return Status::InvalidArgument(StrFormat(
          "parameter shape mismatch for '%s': file %s vs model %s",
          params[i]->name.c_str(), ShapeToString(records[i].shape).c_str(),
          params[i]->value.ShapeString().c_str()));
    }
  }
  return Status::Ok();
}

void CopyPayloads(const std::vector<Parameter*>& params,
                  const std::vector<ParamRecord>& records,
                  const std::string& buffer) {
  for (size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(),
                buffer.data() + records[i].payload_offset,
                records[i].payload_floats * sizeof(float));
  }
}

}  // namespace

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path, const std::string& aux) {
  std::string buffer;
  buffer.append(kMagicV2, sizeof(kMagicV2));
  AppendPod<uint64_t>(&buffer, params.size());
  for (const Parameter* p : params) {
    AppendPod<uint64_t>(&buffer, p->name.size());
    buffer.append(p->name.data(), p->name.size());
    AppendPod<uint64_t>(&buffer, p->value.rank());
    for (size_t d : p->value.shape()) AppendPod<uint64_t>(&buffer, d);
    buffer.append(reinterpret_cast<const char*>(p->value.data()),
                  p->value.size() * sizeof(float));
  }
  AppendPod<uint64_t>(&buffer, aux.size());
  buffer.append(aux);
  AppendPod<uint32_t>(&buffer, Crc32(buffer.data(), buffer.size()));

  // Temp-file + rename: the final path only ever holds a complete,
  // checksummed image. rename(2) within one directory is atomic on POSIX.
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + temp);
    out.write(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    out.close();
    if (!out) {
      std::remove(temp.c_str());
      return Status::IoError("failed writing: " + temp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::remove(temp.c_str());
    return Status::IoError(StrFormat("cannot rename %s to %s: %s",
                                     temp.c_str(), path.c_str(),
                                     ec.message().c_str()));
  }
  return Status::Ok();
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path, std::string* aux) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  in.close();

  if (buffer.size() < sizeof(kMagicV2)) {
    return Status::InvalidArgument("file too short for a magic: " + path);
  }
  if (std::memcmp(buffer.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return Status::InvalidArgument("bad magic in parameter file: " + path);
  }
  if (buffer.size() < sizeof(kMagicV2) + sizeof(uint32_t)) {
    return Status::IoError("truncated file (no checksum footer): " + path);
  }
  const size_t body_end = buffer.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, buffer.data() + body_end, sizeof(stored));
  const uint32_t computed = Crc32(buffer.data(), body_end);
  if (stored != computed) {
    return Status::IoError(StrFormat(
        "checksum mismatch in %s: stored %08x, computed %08x (file "
        "truncated or corrupted)",
        path.c_str(), stored, computed));
  }

  BufferReader reader(buffer, body_end);
  char magic[sizeof(kMagicV2)];
  APOTS_RETURN_IF_ERROR(reader.ReadBytes(magic, sizeof(magic), "magic"));
  uint64_t count = 0;
  APOTS_RETURN_IF_ERROR(reader.ReadPod(&count, "parameter count"));
  if (count > body_end) {  // structurally impossible; corrupt count field
    return Status::IoError(StrFormat(
        "corrupt parameter count %llu in %s",
        static_cast<unsigned long long>(count), path.c_str()));
  }

  std::vector<ParamRecord> records;
  APOTS_RETURN_IF_ERROR(
      ParseRecords(&reader, static_cast<size_t>(count), &records));

  uint64_t aux_len = 0;
  APOTS_RETURN_IF_ERROR(reader.ReadPod(&aux_len, "aux blob length"));
  if (aux_len > reader.remaining()) {
    return Status::IoError(StrFormat(
        "corrupt aux length %llu with %zu bytes left",
        static_cast<unsigned long long>(aux_len), reader.remaining()));
  }
  std::string stored_aux(static_cast<size_t>(aux_len), '\0');
  APOTS_RETURN_IF_ERROR(
      reader.ReadBytes(stored_aux.data(), stored_aux.size(), "aux blob"));
  if (reader.remaining() != 0) {
    return Status::IoError(StrFormat(
        "trailing %zu unexpected bytes in %s", reader.remaining(),
        path.c_str()));
  }

  // Validate everything before writing anything: a failed load must leave
  // the model exactly as it was (the checkpoint-fallback path depends on
  // this).
  APOTS_RETURN_IF_ERROR(ValidateAgainstModel(params, records));
  CopyPayloads(params, records, buffer);
  if (aux != nullptr) *aux = std::move(stored_aux);
  return Status::Ok();
}

}  // namespace apots::nn
