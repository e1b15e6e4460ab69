#include "src/recovery/manifest.h"

#include <cstring>
#include <filesystem>

#include "src/common/crc32c.h"
#include "src/common/encoding.h"
#include "src/recovery/fs_util.h"

namespace ssidb::recovery {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'I', 'D', 'B', 'M', 'F', '1'};
constexpr char kEndMagic[8] = {'S', 'S', 'I', 'D', 'B', 'E', 'N', 'D'};

}  // namespace

Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     bool fsync, io::Env* env, uint64_t* bytes) {
  env = io::ResolveEnv(env);
  std::string image(kMagic, sizeof(kMagic));
  PutBig64(&image, manifest.watermark);
  PutBig32(&image, static_cast<uint32_t>(manifest.tables.size()));
  for (const std::string& name : manifest.tables) {
    PutLengthPrefixed(&image, name);
  }
  PutBig32(&image, Crc32c(image));
  image.append(kEndMagic, sizeof(kEndMagic));
  if (bytes != nullptr) *bytes = image.size();

  // The WAL writer creates `dir` lazily, maybe not yet.
  Status st = env->CreateDirs(dir);
  if (!st.ok()) return st;
  const std::string path = dir + "/" + kManifestFileName;
  const std::string tmp = path + ".tmp";
  st = WriteFileDurably(tmp, image, fsync, env);
  if (st.ok()) st = env->Rename(tmp, path);
  if (!st.ok()) {
    env->RemoveFile(tmp);
    return st;
  }
  return fsync ? SyncDir(dir, env) : Status::OK();
}

Status ReadManifest(const std::string& dir, Manifest* manifest, bool* found,
                    io::Env* env) {
  *found = false;
  const std::string path = dir + "/" + kManifestFileName;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return Status::OK();
  std::string contents;
  Status st = ReadFileToString(path, &contents, env);
  if (!st.ok()) return st;
  const Status damaged = Status::Corruption("damaged manifest: " + path);
  const size_t footer = sizeof(uint32_t) + sizeof(kEndMagic);
  if (contents.size() < sizeof(kMagic) + footer ||
      std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0 ||
      std::memcmp(contents.data() + contents.size() - sizeof(kEndMagic),
                  kEndMagic, sizeof(kEndMagic)) != 0) {
    return damaged;
  }
  const Slice body(contents.data(), contents.size() - footer);
  size_t off = body.size();
  uint32_t crc = 0;
  if (!GetBig32(contents, &off, &crc) || Crc32c(body) != crc) return damaged;
  off = sizeof(kMagic);
  uint32_t count = 0;
  Manifest m;
  if (!GetBig64(body, &off, &m.watermark) || !GetBig32(body, &off, &count)) {
    return damaged;
  }
  m.tables.resize(count);
  for (std::string& name : m.tables) {
    if (!GetLengthPrefixed(body, &off, &name)) return damaged;
  }
  if (off != body.size()) return damaged;
  *manifest = std::move(m);
  *found = true;
  return Status::OK();
}

}  // namespace ssidb::recovery
